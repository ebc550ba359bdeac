package correctbench

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"correctbench/internal/autobench"
	"correctbench/internal/dataset"
	"correctbench/internal/harness"
	"correctbench/internal/llm"
	"correctbench/internal/mutate"
	"correctbench/internal/testbench"
)

// corruptionSource is a math/rand source that counts its draws and
// notes the draw count at the first draw made inside the generators'
// corruptTestbench, which is where a generated driver is corrupted.
type corruptionSource struct {
	src     rand.Source64
	draws   int
	corrupt int // draws before corruptTestbench's first; -1 if none
}

func newCorruptionSource(seed int64) *corruptionSource {
	return &corruptionSource{src: rand.NewSource(seed).(rand.Source64), corrupt: -1}
}

func (s *corruptionSource) Seed(int64) { panic("corruptionSource: Seed") }

func (s *corruptionSource) Int63() int64 {
	s.note()
	return s.src.Int63()
}

func (s *corruptionSource) Uint64() uint64 {
	s.note()
	return s.src.Uint64()
}

func (s *corruptionSource) note() {
	if s.corrupt < 0 && inCorruptTestbench() {
		s.corrupt = s.draws
	}
	s.draws++
}

// inCorruptTestbench reports whether the caller runs under
// autobench's corruptTestbench (inlined or not).
func inCorruptTestbench() bool {
	pc := make([]uintptr, 32)
	frames := runtime.CallersFrames(pc[:runtime.Callers(3, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, "/internal/autobench.corruptTestbench") {
			return true
		}
		if !more {
			return false
		}
	}
}

// eagerDriver is the driver text as EmitDriver renders it on a
// field-wise copy of tb's problem and scenarios, the fields it reads.
func eagerDriver(tb *Testbench) string {
	return testbench.EmitDriver(&Testbench{Problem: tb.Problem, Scenarios: tb.Scenarios})
}

// TestLazyDriverMatchesEagerEmission is the differential for the
// lazily rendered driver. On every problem, for Baseline and AutoBench
// testbenches at three seeds, for the golden testbench and for each
// generated testbench rebuilt from its wire form:
//   - Driver() is byte-equal to EmitDriver on a field-wise copy;
//   - DriverSource is empty unless the generator corrupted the driver,
//     so a testbench whose driver is not corrupted never rendered one;
//   - a corrupted driver equals CorruptSyntax applied to the eager text
//     with the generator's random source at the same position;
//   - SyntaxOK equals a fresh parse of Driver() and the checker.
func TestLazyDriverMatchesEagerEmission(t *testing.T) {
	prof := llm.GPT4o()
	check := func(label string, tb *Testbench) {
		t.Helper()
		if got, want := tb.SyntaxOK(), freshSyntaxOK(tb); got != want {
			t.Errorf("%s: SyntaxOK = %v, fresh parse of Driver() and checker = %v", label, got, want)
		}
	}
	lazy := func(label string, tb *Testbench) {
		t.Helper()
		if tb.DriverSource != "" {
			t.Errorf("%s: DriverSource holds %d bytes, want the rendered driver (empty)", label, len(tb.DriverSource))
		}
		if tb.Driver() != eagerDriver(tb) {
			t.Errorf("%s: Driver() differs from EmitDriver on a field-wise copy", label)
		}
		check(label, tb)
	}
	corrupted := 0
	for i, p := range dataset.All() {
		gold, err := testbench.Golden(p, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatalf("%s: golden: %v", p.Name, err)
		}
		lazy(p.Name+" golden", gold)
		for _, m := range []harness.Method{harness.MethodBaseline, harness.MethodAutoBench} {
			gen, err := autobench.ForMethod(string(m), prof)
			if err != nil {
				t.Fatal(err)
			}
			for _, seed := range []int64{1, 42, 1009} {
				label := fmt.Sprintf("%s/%s/seed %d", p.Name, m, seed)
				src := newCorruptionSource(seed*1000 + int64(i))
				r := rand.New(src)
				var acct llm.Accountant
				tb, err := gen.Generate(p, prof.SampleTrait(p.Difficulty, p.Kind == dataset.SEQ, r), r, &acct)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				wantDriver := ""
				if src.corrupt >= 0 {
					// Replay from the same position: corruptTestbench's
					// coin, then CorruptSyntax over the eager text.
					replay := newCorruptionSource(seed*1000 + int64(i))
					for range src.corrupt {
						replay.Int63()
					}
					rr := rand.New(replay)
					if rr.Intn(2) == 0 {
						wantDriver = mutate.CorruptSyntax(eagerDriver(tb), rr)
						corrupted++
					}
				}
				if tb.DriverSource != wantDriver {
					t.Errorf("%s: DriverSource (%d bytes) differs from the eager corruption (%d bytes)", label, len(tb.DriverSource), len(wantDriver))
				}
				if wantDriver == "" {
					lazy(label, tb)
				} else {
					if tb.Driver() != tb.DriverSource {
						t.Errorf("%s: Driver() is not the explicit corrupted driver", label)
					}
					check(label, tb)
				}
				w := toWire(tb)
				back := wireToTestbench(p, &w)
				lazy(label+" wire", back)
				if back.Driver() != eagerDriver(tb) {
					t.Errorf("%s: the wire rebuild renders another driver than the generated testbench's scenarios", label)
				}
			}
		}
	}
	t.Logf("%d generated drivers corrupted", corrupted)
	if corrupted == 0 {
		t.Error("no generated driver was corrupted; the corruption comparison checked nothing")
	}
}
