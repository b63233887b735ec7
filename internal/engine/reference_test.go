package engine_test

// The reference table of the allocation gates: the only historical
// engine numbers the live runs are still compared against. Each value
// is a steady-state allocs/op recorded by `ipg-bench -engines -json` in
// the report committed at the commit named beside it (`git show
// <commit> --stat` names the report file).

// preChartEarleyAllocs is Earley's allocs/op per workload before the
// pooled chart, the numbers TestEarleyAllocDropVersusPR4 demands a ≥10×
// drop against.
var preChartEarleyAllocs = map[string]int64{
	"calc-det":           36281, // c107a4b
	"calc-ll":            38277, // c107a4b
	"calc-sdf-ambiguous": 39618, // c107a4b
	"sdf-bootstrap":      6599,  // c107a4b
}

// referenceAllocs is allocs/op per (workload, engine) row, the budget
// TestAllocRegressionGuard holds every live row to.
var referenceAllocs = map[[2]string]int64{
	{"calc-det", "glr"}:              0,   // 843bcaa
	{"calc-det", "lalr"}:             0,   // 843bcaa
	{"calc-det", "earley"}:           0,   // 843bcaa
	{"calc-det", "auto"}:             0,   // 843bcaa
	{"calc-ll", "glr"}:               0,   // 843bcaa
	{"calc-ll", "lalr"}:              0,   // 843bcaa
	{"calc-ll", "ll"}:                253, // 843bcaa
	{"calc-ll", "earley"}:            0,   // 843bcaa
	{"calc-ll", "auto"}:              0,   // 843bcaa
	{"calc-sdf-ambiguous", "glr"}:    0,   // 843bcaa
	{"calc-sdf-ambiguous", "lalr"}:   0,   // 843bcaa
	{"calc-sdf-ambiguous", "earley"}: 0,   // 843bcaa
	{"calc-sdf-ambiguous", "auto"}:   0,   // 843bcaa
	{"sdf-bootstrap", "glr"}:         0,   // 843bcaa
	{"sdf-bootstrap", "lalr"}:        0,   // 843bcaa
	{"sdf-bootstrap", "earley"}:      0,   // 843bcaa
	{"sdf-bootstrap", "auto"}:        0,   // 843bcaa
}
