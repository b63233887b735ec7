// ipg is the command-line front end of the incremental parser generator:
// it loads a grammar (plain BNF or an SDF definition), parses sentences,
// and supports interactive grammar modification — the workflow of the
// paper's interactive language definition environment.
//
// Usage:
//
//	ipg -grammar booleans.bnf -parse "true or false"
//	ipg -grammar Exp.sdf -text "1 + 2 * 3"
//	ipg -grammar booleans.bnf -repl
//	ipg -grammar booleans.bnf -repl -snapshot session.ipgsnap
//	ipg -grammar calc.bnf -engine auto -parse "n + n"
//
// -engine selects the parsing backend: glr (default — the paper's lazy
// incremental generator), lalr, ll, earley, or auto, which probes the
// grammar once, prints why it chose what, and keeps that backend as
// rules are added or deleted in the REPL. The non-GLR backends drive
// the same REPL and parse/text modes; -load-table/-save-table/-snapshot
// require the default engine, whose lazy table is the thing worth
// persisting.
//
// -snapshot names a checksummed session file: the table generated this
// session (including its lazy frontier) is saved atomically on exit and
// resumed on the next start, as long as the grammar still matches; a
// stale or corrupt file just starts cold.
//
// REPL commands:
//
//	<sentence>        parse source text (SDF grammars) or space-separated
//	                  terminal names (BNF grammars)
//	:add <rule>       add a BNF rule incrementally (an SDF grammar's
//	                  scanner learns its new quoted terminals)
//	:delete <rule>    delete a BNF rule incrementally
//	:stats            show table coverage
//	:table            show the ACTION/GOTO table generated so far
//	:graph            show the graph of item sets
//	:quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"ipg"
	"ipg/internal/snapshot"
)

func main() {
	log.SetFlags(0)
	grammarPath := flag.String("grammar", "", "grammar file (.sdf = SDF definition, anything else = BNF)")
	start := flag.String("start", "", "start sort for SDF grammars (default: first function's result)")
	parse := flag.String("parse", "", "sentence of space-separated terminal names to parse")
	text := flag.String("text", "", "source text to scan and parse (SDF grammars only)")
	repl := flag.Bool("repl", false, "interactive session")
	showTrees := flag.Bool("trees", true, "print parse trees")
	maxTrees := flag.Int("max-trees", 4, "maximum trees to print")
	loadTable := flag.String("load-table", "", "resume from a saved parse table (BNF grammars only)")
	saveTable := flag.String("save-table", "", "persist the (possibly partial) parse table on exit")
	session := flag.String("snapshot", "", "checksummed session file: resume the table from it if valid, save on exit (BNF grammars only)")
	engineName := flag.String("engine", "", "parsing backend: glr (default), lalr, ll, earley or auto")
	flag.Parse()

	if *grammarPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*grammarPath)
	if err != nil {
		log.Fatal(err)
	}

	kind, err := ipg.ParseEngineName(*engineName)
	if err != nil {
		log.Fatal(err)
	}
	if kind != ipg.EngineDefault && kind != ipg.EngineGLR {
		if *loadTable != "" || *saveTable != "" || *session != "" {
			log.Fatalf("-load-table/-save-table/-snapshot require the glr engine (got -engine %s)", kind)
		}
		runWithEngine(kind, *grammarPath, string(src), *start, *parse, *text, *repl, *showTrees)
		return
	}

	var p *ipg.Parser
	if strings.HasSuffix(*grammarPath, ".sdf") {
		p, err = ipg.LoadSDF(string(src), *start, nil)
	} else {
		var g *ipg.Grammar
		g, err = ipg.ParseGrammar(string(src))
		if err == nil {
			switch {
			case *loadTable != "":
				var f *os.File
				f, err = os.Open(*loadTable)
				if err == nil {
					p, err = ipg.NewParserFromTable(g, f, nil)
					f.Close()
				}
			case *session != "":
				// Resume the session snapshot when it exists and still
				// matches the grammar; anything else starts cold — a
				// stale or corrupt session file is never fatal.
				p = resumeSession(g, *session)
				if p == nil {
					p, err = ipg.NewParser(g, nil)
				}
			default:
				p, err = ipg.NewParser(g, nil)
			}
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	if *saveTable != "" {
		defer func() {
			f, err := os.Create(*saveTable)
			if err != nil {
				log.Print(err)
				return
			}
			defer f.Close()
			if err := p.SaveTable(f); err != nil {
				log.Print(err)
			}
		}()
	}
	if *session != "" {
		defer saveSession(p, *session)
	}

	report := func(res ipg.Result) {
		fmt.Println("accepted:", res.Accepted)
		if res.Accepted && res.Root != nil {
			if n, err := ipg.TreeCount(res.Root); err == nil {
				fmt.Println("parses:  ", n)
			}
			if *showTrees {
				trees, err := p.Trees(res.Root, *maxTrees)
				if err == nil {
					for _, t := range trees {
						fmt.Println("  ", t)
					}
				}
			}
		}
		s := p.Stats()
		fmt.Printf("table:    %d states, %d expanded\n", s.States, s.Complete)
	}

	switch {
	case *text != "":
		res, err := p.ParseText(*text)
		if err != nil {
			log.Fatal(err)
		}
		report(res)
	case *parse != "":
		toks, err := p.Tokens(*parse)
		if err != nil {
			log.Fatal(err)
		}
		res, err := p.Parse(toks)
		if err != nil {
			log.Fatal(err)
		}
		report(res)
	case *repl:
		runREPL(p, report)
	default:
		fmt.Printf("loaded %s: %d rules\n", *grammarPath, p.Grammar().Len())
		fmt.Print(p.Grammar().String())
	}
}

// runWithEngine drives -parse/-text/-repl through a registry entry on a
// non-default backend — the same code path ipg-serve uses, so the CLI
// and the service agree about every engine's behavior.
func runWithEngine(kind ipg.EngineKind, grammarPath, src, start, parse, text string, repl, showTrees bool) {
	form := ipg.FormRules
	if strings.HasSuffix(grammarPath, ".sdf") {
		form = ipg.FormSDF
	}
	reg := ipg.NewRegistry()
	entry, err := reg.Register(filepath.Base(grammarPath), ipg.GrammarSpec{
		Source: src, Form: form, StartSort: start, Engine: kind,
	})
	if err != nil {
		log.Fatal(err)
	}
	st := entry.Stats()
	fmt.Printf("engine: %s (%s)\n", st.Engine, st.EngineReason)

	report := func(res ipg.RegistryResult) {
		fmt.Println("accepted:", res.Accepted)
		if res.TreesKnown && res.Accepted {
			fmt.Println("parses:  ", res.Trees)
		}
		if !res.Accepted && res.ErrorPos >= 0 {
			expected, _ := entry.Describe(res, false)
			fmt.Printf("error:    token %d, expected %s\n", res.ErrorPos, strings.Join(expected, " or "))
		}
		if showTrees && res.Root != nil {
			_, forestText := entry.Describe(res, true)
			fmt.Println("  ", forestText)
		}
		st := entry.Stats()
		fmt.Printf("table:    %d states, %d expanded\n", st.States, st.Complete)
	}

	parseInput := func(input string) {
		res, err := entry.ParseInput(input, true)
		if err != nil {
			log.Fatal(err)
		}
		report(res)
	}

	switch {
	case text != "":
		parseInput(text)
	case parse != "":
		toks, err := entry.Tokens(parse)
		if err != nil {
			log.Fatal(err)
		}
		res, err := entry.Parse(toks, true)
		if err != nil {
			log.Fatal(err)
		}
		report(res)
	case repl:
		sc := bufio.NewScanner(os.Stdin)
		fmt.Println("ipg repl — :add/:delete/:stats/:quit, anything else parses")
		fmt.Print("> ")
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			switch {
			case line == "":
			case line == ":quit":
				return
			case line == ":stats":
				st := entry.Stats()
				fmt.Printf("engine=%s states=%d expanded=%d parses=%d\n",
					st.Engine, st.States, st.Complete, st.Counters.ParsesServed)
				fmt.Printf("reason: %s\n", st.EngineReason)
			case strings.HasPrefix(line, ":add "):
				if _, err := entry.AddRulesText(strings.TrimPrefix(line, ":add ")); err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Printf("ok [engine %s]\n", entry.EngineKind())
				}
			case strings.HasPrefix(line, ":delete "):
				if _, err := entry.DeleteRulesText(strings.TrimPrefix(line, ":delete ")); err != nil {
					fmt.Println("error:", err)
				} else {
					fmt.Printf("ok [engine %s]\n", entry.EngineKind())
				}
			case strings.HasPrefix(line, ":"):
				fmt.Println("unknown command", line, "(:table/:graph need the glr engine)")
			default:
				res, err := entry.ParseInput(line, true)
				if err != nil {
					fmt.Println("error:", err)
					break
				}
				report(res)
			}
			fmt.Print("> ")
		}
	default:
		fmt.Printf("loaded %s: %d rules [engine %s]\n", grammarPath, entry.Grammar().Len(), st.Engine)
		fmt.Print(entry.Grammar().String())
	}
}

// resumeSession loads a -snapshot session file, returning nil (start
// cold) when the file is missing, corrupt, or from a different grammar.
func resumeSession(g *ipg.Grammar, path string) *ipg.Parser {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	p, err := ipg.LoadSnapshotParser(g, f, nil)
	if err != nil {
		log.Printf("snapshot %s unusable, starting cold: %v", path, err)
		return nil
	}
	s := p.Stats()
	log.Printf("resumed session: %d states (%d expanded)", s.States, s.Complete)
	return p
}

// saveSession writes the session snapshot atomically (temp, fsync,
// rename), so an interrupted exit leaves the previous session intact.
func saveSession(p *ipg.Parser, path string) {
	err := snapshot.WriteFile(path, func(w io.Writer) error { return p.SaveSnapshot(w, filepath.Base(path)) })
	if err != nil {
		log.Print(err)
	}
}

func runREPL(p *ipg.Parser, report func(ipg.Result)) {
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("ipg repl — :add/:delete/:stats/:table/:graph/:quit, anything else parses")
	fmt.Print("> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case line == ":quit":
			return
		case line == ":stats":
			s := p.Stats()
			fmt.Printf("states=%d expanded=%d initial=%d dirty=%d expansions=%d removed=%d\n",
				s.States, s.Complete, s.Initial, s.Dirty, s.Expansions, s.StatesRemoved)
		case line == ":table":
			fmt.Print(p.TableString())
		case line == ":graph":
			fmt.Print(p.GraphString())
		case strings.HasPrefix(line, ":add "):
			if _, err := p.AddRulesText(strings.TrimPrefix(line, ":add ")); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case strings.HasPrefix(line, ":delete "):
			if err := p.DeleteRulesText(strings.TrimPrefix(line, ":delete ")); err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println("ok")
			}
		case strings.HasPrefix(line, ":"):
			fmt.Println("unknown command", line)
		default:
			res, err := parseLine(p, line)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			report(res)
		}
		fmt.Print("> ")
	}
}

// parseLine parses a REPL line as source text when the grammar came from
// SDF, which has a scanner, and as terminal names otherwise — the way a
// registry entry reads its input under the other engines.
func parseLine(p *ipg.Parser, line string) (ipg.Result, error) {
	if p.Scanner() != nil {
		return p.ParseText(line)
	}
	toks, err := p.Tokens(line)
	if err != nil {
		return ipg.Result{}, err
	}
	return p.Parse(toks)
}
