// Benchmarks that regenerate every table and figure of the paper's
// evaluation at reduced (Tiny) fidelity, printing the same rows/series the
// paper reports. Run all of them with:
//
//	go test -bench=. -benchmem ./internal/experiments
//
// (also the Makefile's `make bench`). Full-fidelity regeneration is the
// cmd/paperfig binary's job (-full); the benchmark harness exists so
// `go test -bench` exercises every experiment path end to end and reports
// its cost. Each benchmark prints its table once (on the first iteration)
// so the output doubles as a miniature reproduction log. It lives in the
// external test package of internal/experiments — next to the harnesses it
// drives — rather than at the module root, so the root directory holds
// only the public adapt API.
package experiments_test

import (
	"os"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// printOnce guards table printing so -benchtime multipliers do not spam.
var printOnce sync.Map

func emit(b *testing.B, key string, t experiments.Table) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(key, true); !done {
		t.Fprint(os.Stdout)
	}
}

func BenchmarkTable2Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if len(rows) != 4 {
			b.Fatal("table 2 wrong shape")
		}
	}
	emit(b, "t2", experiments.Table2Table())
}

func BenchmarkTable4Classification(b *testing.B) {
	opt := experiments.Tiny()
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4(opt)
	}
	emit(b, "t4", experiments.Table4Table(rows))
}

func BenchmarkFig1ForcedBRRIP(b *testing.B) {
	opt := experiments.Tiny()
	var res experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig1(opt)
	}
	emit(b, "f1a", res.TableA())
	emit(b, "f1b", res.TableB())
	emit(b, "f1c", res.TableC())
}

func BenchmarkFig3SixteenCore(b *testing.B) {
	opt := experiments.Tiny()
	var res experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig3(opt)
	}
	emit(b, "f3", res.Table("Figure 3 — 16-core workloads"))
}

func BenchmarkFig4Fig5PerApp(b *testing.B) {
	opt := experiments.Tiny()
	var f4, f5 experiments.Table
	for i := 0; i < b.N; i++ {
		res := experiments.Fig3(opt)
		f4, f5 = res.Fig45Tables()
	}
	emit(b, "f4", f4)
	emit(b, "f5", f5)
}

func BenchmarkFig6Bypass(b *testing.B) {
	opt := experiments.Tiny()
	var res experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig6(opt)
	}
	emit(b, "f6", res.Table())
}

func BenchmarkFig7LargerCaches(b *testing.B) {
	opt := experiments.Tiny()
	opt.MaxWorkloads = 2
	var res experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig7(opt)
	}
	emit(b, "f7", res.Table())
}

func BenchmarkFig8Scalability(b *testing.B) {
	opt := experiments.Tiny()
	opt.MaxWorkloads = 2
	var res experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		res = experiments.Fig8(opt)
	}
	for _, t := range res.Tables() {
		emit(b, "f8-"+t.Title, t)
	}
}

func BenchmarkTable7Metrics(b *testing.B) {
	opt := experiments.Tiny()
	opt.MaxWorkloads = 2
	var res experiments.Table7Result
	for i := 0; i < b.N; i++ {
		res = experiments.Table7(opt)
	}
	emit(b, "t7", res.Table())
}

func BenchmarkAblationInterval(b *testing.B) {
	opt := experiments.Tiny()
	opt.MaxWorkloads = 2
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationInterval(opt)
	}
	emit(b, "abl-i", res.Table())
}

func BenchmarkAblationSets(b *testing.B) {
	opt := experiments.Tiny()
	opt.MaxWorkloads = 2
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationSets(opt)
	}
	emit(b, "abl-s", res.Table())
}

func BenchmarkAblationRanges(b *testing.B) {
	opt := experiments.Tiny()
	opt.MaxWorkloads = 2
	var res experiments.AblationResult
	for i := 0; i < b.N; i++ {
		res = experiments.AblationRanges(opt)
	}
	emit(b, "abl-r", res.Table())
}
