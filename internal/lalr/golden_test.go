package lalr

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipg/internal/grammar"
	"ipg/internal/sdf"
)

// unproductiveText has a nonterminal, U, that derives no terminal string.
// FIRST(U "b") is empty and U is not nullable, so the LR(1) closure of
// B ::= . C U "b" holds no C items although the LR(0) closure does. The
// state reached on "c" therefore has a kernel slot no lookahead reaches,
// while its own closure spontaneously generates "e" for D ::= ε: that
// reduction must still get no lookahead.
const unproductiveText = `
START ::= S
S ::= "s" B
S ::= "x" D "e"
B ::= C U "b"
C ::= "c" D E
D ::= ε
E ::= "e"
U ::= U "u"
`

// loadTestdata loads a grammar of the repository's testdata directory:
// SDF definitions through the SDF converter, .bnf files as rule text.
func loadTestdata(tb testing.TB, name string) *grammar.Grammar {
	tb.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	if strings.HasSuffix(name, ".bnf") {
		g, err := grammar.Parse(string(src), nil)
		if err != nil {
			tb.Fatalf("%s: %v", name, err)
		}
		return g
	}
	def, err := sdf.ParseDefinition(string(src))
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	conv, err := sdf.Convert(def, "")
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return conv.Grammar
}

// goldenRandom is the seeded random grammar of the golden test. The
// shape varies with the seed, and many of these grammars are not
// reduced: unproductive and unreachable nonterminals, and nullable ones
// next to them, are the cases the lookahead analysis must get right.
func goldenRandom(seed int64) *grammar.Grammar {
	return grammar.Random(grammar.RandConfig{
		Nonterminals: 3 + int(seed%4),
		Terminals:    2 + int(seed%3),
		Rules:        6 + int(seed%7),
		StartRules:   1 + int(seed%2),
		EpsilonProb:  0.2,
	}, rand.New(rand.NewSource(seed)))
}

// goldenDigest hashes what Generate decides for a grammar: the canonical
// Signature (states, transitions, reduce lookaheads, conflict set) and
// the conflict list in the order Conflicts reports it.
func goldenDigest(tbl *Table) string {
	var b strings.Builder
	b.WriteString(tbl.Signature())
	b.WriteString("ordered conflicts:\n")
	for _, c := range tbl.Conflicts() {
		fmt.Fprintf(&b, "  %d|%s|%d|%s\n", c.State.ID, c.State.Kernel.Key(), c.Symbol, c.Kind)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// goldenTestdata and goldenRandomDigests pin Generate's output. The
// parity tests compare repaired tables with regenerated ones, both from
// the current code, so only a pinned digest sees Generate itself change.
// Update a digest only in a change that means to alter the tables.
var goldenTestdata = map[string]string{
	"ASF.sdf":      "29d7d994985f2ceda20822c01a020406c8d6ae1717ee033ffb06b0cb8d08ed3e",
	"Calc.sdf":     "dd541467cec5c90d7ffad5ca2b0ee6fdf366ecdad3bba5d63b924bec4ef1ade6",
	"CalcDet.bnf":  "bfe50c2fbe059e502935c1f9bfc6c9789c92574869d19cebabd0cc734f865965",
	"CalcLL.bnf":   "6e642bb6cedcade3cc647844318fa2a44a6d265eff3797a14f9684188d1cb640",
	"Exam.sdf":     "4515c4b3720820f11a9c3b3e99890db58ed3477d924923e78818f4fe663b71a2",
	"SDF.sdf":      "b135b246f6b5ae0244fd1bdfa3b96b8eef88a8481f5a3c636983f8d86f64d4f6",
	"exp.sdf":      "de48d909e926f1c3af60dd5d61b3285079baeb5480848d96c1b8193f386b3e3a",
	"unproductive": "1da00dcf2f8fc292d08a9011f92bb200ba2223db42a6003d6bbeee4f777c646e",
}

var goldenRandomDigests = []string{
	"ef2ceaa44440a8f1f6c9a38124f322c68eca3f87b05d3f3bca91320fea690a55", // 0
	"9b49189b83676d5ec3d98147870aef9383bb398c7ef7755d34b83aa29d6819fa", // 1
	"6c2a1558ef181b2ddc6aefd2569634b24f6e731cdc1462e2b0dbd40b79feedfa", // 2
	"8c8ec179d596c2a9acdfcd06fb6c5bed060d8d7fc116a67212621aeaae49aa20", // 3
	"cb8a6a4d8af737c1d09d52414113ed5dd07f388e117a841a770d8e89871bc97f", // 4
	"6a1156463241863885015947fd865f07a134624f67884ddeb3fba531316b51b4", // 5
	"438d193b186a0587bd4a462e6e1cb83802e433aa1cd16e2a7895c2b56447102a", // 6
	"07c79c411232f08b969ab5f4daeea6219b7ae205ce04ff1e98eecbbbd4e5b8cf", // 7
	"32a458fa38ad488698d25779b6cabaf3bd5f72b7288ccb0dbd877e8d008b51a3", // 8
	"9405c0c8f1e66e22480dc6567696165103bb6980b008ba568fd569edb59fef3d", // 9
	"3dee0b011d32da5e1e817abf741b5ab6f357bccc1b38ae45497d69b7607b8a49", // 10
	"95e29a2463cc2cbd5566705ee727940f0f8f3d3646c81110e99176d6545cca0a", // 11
	"49c3b2a935acd80cbd378f55244f3621aaa455b210c0fa4620a5cef0064971e2", // 12
	"85c588033163428ce47be5f906c104002f674b01a1dbdcd13f9233e780868752", // 13
	"826b5db99401be3f8f5f98c80327222acded8ca01bb15f65c8c52a69c15f20d6", // 14
	"1b14413575117ac8e497d1e6e61b606cfe65b7403c6e3807ede2763b6ec9995c", // 15
	"e1fe2d34c213356eedcd8ddefa1b1e40db99efe29b624a0c4d10a332a833b1ef", // 16
	"5af9b29e381c1de524d0ff72337a3842d7e3fa933782ef68b5b907725caa9c58", // 17
	"120b355a764a532061273ea7588f974b136bc2f41ae5b64d1570b9f84673b6b3", // 18
	"a78495ca69debb6151a8d174b4933ddcc5e199d858526cda97924ee45d18a309", // 19
	"600e055da385afd55dfc2fbdd598c5bd4be52162de50a47c5d22e193781accad", // 20
	"ee6bb033efc929963b26984073bae4ff2f5c72195c625992571b911e1ef5d315", // 21
	"d0074f650c3a08d3208f3da60fbf2ddecb5d648f099f566d89cd3d5f05345fc3", // 22
	"bea19f773110ba7eb8a8ed2cbf556fc9d283ba61567c8c3200ba2a86e2f5e6e6", // 23
	"87d3878a1635c6202b60b6d5be2e2f66ccb9ee736c1198da3dacb0f9569deb5e", // 24
	"9f756df57924935021b144ea0bdb673ca1e674f65203883739effb94f1b92e22", // 25
	"f35b69d5787525f09d7a21eb9310a1b9ae1562f61432e7c6eedbd01b4a6296f9", // 26
	"975945b0da0307fa03f65063dfcfea9271e6ce2772f393de7a527f9a14485f5c", // 27
	"b82c8a4741f5da3a45eca8b1578c67be846164f9baeeb96cb96c9cf5153f0ba3", // 28
	"66df257bef850c8f2a4afbc26785cb88200933662aa234847dc3f1169b0f1104", // 29
	"9b9c8e3cc401a8b9f83959ecbbd9c3704b266f2d606d1b6c260b65c69c03e63f", // 30
	"8bc9d555e306389297bb4b3f69f087611060168c4bb25376e05d1b21292a1fb9", // 31
	"3337e9273f0909e4dd7ba380d9178d13cd15f868623f04bc3443c1fb3a8156c9", // 32
	"48b1d3050f56b03e3ac598a3232358ad37b8eac8ff641323e473fc6479946399", // 33
	"81a6703a7f943ed4c18209f0f1b6869951598e8ded4af97c492f04de2d1199bf", // 34
	"e6c6ce2f12862c1d7d1e143598f3c1357c6d88a4d7b27983b813b87949ac7459", // 35
	"90c5c552283e5797cb488c02e7d47a1489bb8387c2980e4dbc41a655ef6b64dd", // 36
	"830e1294058f66019948b15617a1ea595f48db3e3ce8de2859672347921b5989", // 37
	"cbcad5f6910eee2a708e8d2e8445684157fdd24a9498c2ba20c24a0ece909f6e", // 38
	"9b2a048caace03df806b033b0eb8fa94d25d4f5c05976cf29fb9263933295a27", // 39
	"793ee3db4c1ae046bcf7890b25f4e3bae135367021cc57398ba5fbcf4166b848", // 40
	"bd03046e393386a5cfaab5535b8acd92d395b1d9acf380f2d369e6d1f02c0783", // 41
	"95d1a533a44c3876c41cdb573d3b2941d622f31badaddf929cb158ccb53ba798", // 42
	"0cbef5856d8b14581154f91cab08600a2700bb90fe83619f2e53f7662a3161e5", // 43
	"d247248845a3667959b0b0178fa04ed561bdef7825f0c88456849ee623c11fae", // 44
	"89d844341899b74d894bb2f5c159b2dc39993f65e971ee192a1da53204694e9b", // 45
	"ec8ba1727ec1fbdf2766a0687faf04fca33570255c7599d1db45934fdde106af", // 46
	"b92d074840007d345d72c41a00f469cff1ca998063b1df3b0b55fe0af421121a", // 47
	"e406aa4b8ccb5366683706a5f951179288f1afaacb0c5b090318d27ef181d64d", // 48
	"adb40643feb59631d385e5c36947455619b0f0caee1124a936baca38ed00b712", // 49
	"b38d88730c3cdb57a8a8307c029bdf764e1d3022849a3648678e7c6d3691ab25", // 50
	"0e2a29f59708e813d4c15905bc1b7792a7f86f95837b95c77f1244f8a23d6726", // 51
	"0c164b8ab73d43f0b1b49462e757e15b31c4042a3054c92630d12741a6be18bd", // 52
	"5f5fa620b71d6ef4a49c3ea50199abcfa1952240c68d313804494c1a1df73144", // 53
	"773bc0e71bbe336860d7a42cadd656a4cad78c1e7e160577cb7a9e6dba36bb2f", // 54
	"6f96299ca31f5596eb179492eec29dc70fee18fc2116f114d46abf6cd2f3f94a", // 55
	"a56b54d64b72a05b181172a4b46cc02f5f0ee91a723431fc4b07948eff56d51e", // 56
	"7b7dd595f81c3c28a8a6e62fbff99591d229d16fc129c311b078fa461e5fb06e", // 57
	"5751cdb30c804c8383985c51e23d806e54df429cd4972f6d48cd6a704107760d", // 58
	"48f180766bd54d543ade817977fe1f2826db21a2a5491dc8b20b55f9b75cd953", // 59
}

func TestGenerateGolden(t *testing.T) {
	for name, want := range goldenTestdata {
		var g *grammar.Grammar
		if name == "unproductive" {
			g = grammar.MustParse(unproductiveText)
		} else {
			g = loadTestdata(t, name)
		}
		if got := goldenDigest(Generate(g)); got != want {
			t.Errorf("%s: digest %s, want %s", name, got, want)
		}
	}
	if len(goldenRandomDigests) < 50 {
		t.Errorf("only %d random grammars pinned, want at least 50", len(goldenRandomDigests))
	}
	for seed, want := range goldenRandomDigests {
		if got := goldenDigest(Generate(goldenRandom(int64(seed)))); got != want {
			t.Errorf("random seed %d: digest %s, want %s", seed, got, want)
		}
	}
}
