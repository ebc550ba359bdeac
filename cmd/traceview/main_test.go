package main

import (
	"bytes"
	"strings"
	"testing"

	"correctbench/internal/obs"
)

// TestCriticalPathSumsPhaseGroups pins the critical path on the shape
// of a validation-heavy cell: 749 short sim_run spans beside one longer
// sibling. The path must report the sim_run sum and descend into it,
// not follow the single heaviest child.
func TestCriticalPathSumsPhaseGroups(t *testing.T) {
	const runs, runUS, llmUS = 749, 2000, 9530
	samples := []obs.PhaseSample{
		{Phase: obs.PhaseSimulate, Seq: 0, ParentSeq: -1, StartUS: 0, DurUS: 2_000_000},
		{Phase: "llm", Seq: 1, ParentSeq: 0, StartUS: 0, DurUS: llmUS},
	}
	for i := 0; i < runs; i++ {
		samples = append(samples, obs.PhaseSample{
			Phase: obs.PhaseRun, Seq: 2 + i, ParentSeq: 0,
			StartUS: llmUS + int64(i)*runUS, DurUS: runUS,
		})
	}
	ct := obs.CellTrace{Method: "CorrectBench", Problem: "alu4", Key: "k", Spans: obs.BuildSpans("k", samples)}

	path := criticalPath(ct)
	if len(path) != 2 {
		t.Fatalf("path has %d levels, want 2 (simulate, sim_run)", len(path))
	}
	root := path[0]
	if root.span.Phase != obs.PhaseSimulate {
		t.Fatalf("path starts at %s, want %s", root.span.Phase, obs.PhaseSimulate)
	}
	if len(root.groups) != 2 {
		t.Fatalf("simulate has %d child groups, want 2", len(root.groups))
	}
	g := root.groups[0]
	if g.phase != obs.PhaseRun || g.count != runs || g.sum != runs*runUS {
		t.Fatalf("heaviest group = %s ×%d %dµs, want %s ×%d %dµs", g.phase, g.count, g.sum, obs.PhaseRun, runs, runs*runUS)
	}
	if want := int64(2_000_000 - llmUS - runs*runUS); root.self != want {
		t.Errorf("simulate self = %dµs, want %dµs", root.self, want)
	}
	if path[1].span.Phase != obs.PhaseRun {
		t.Errorf("path descends into %s, want %s", path[1].span.Phase, obs.PhaseRun)
	}

	var out bytes.Buffer
	render(&out, []obs.CellTrace{ct}, 0, 32)
	if want := "· sim_run               1.50s   74.9%  ×749"; !strings.Contains(out.String(), want) {
		t.Errorf("report is missing %q:\n%s", want, out.String())
	}
}
