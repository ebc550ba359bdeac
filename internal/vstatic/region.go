package vstatic

import (
	"cmp"
	"maps"
	"slices"
	"sort"
)

// Region is the combinational region of one design: per-process
// purity facts plus sensitivity predicates, from which the writer
// conflicts and the signal-dependency graph derive. It is the shared
// substrate of the module-level lint and the batched simulator's
// levelized scheduler, so the two fronts cannot drift apart.
type Region struct {
	Facts []ProcFacts
	Sens  []func(string) bool
}

// WriterConflict reports two processes driving overlapping bits of
// one signal. NBA marks a duplicated nonblocking driver (the engine
// resolves those last-writer-wins per delta, which a static schedule
// cannot reproduce); otherwise the overlap is between blocking/
// continuous drivers.
type WriterConflict struct {
	Signal string
	A, B   int // process ordinals, A < B
	NBA    bool
}

// Conflicts returns every multi-writer conflict in deterministic
// order (by second writer, then signal name). Processes with a
// non-nil Facts.Err contribute their may-write sets regardless, so
// driver lints still fire on impure processes.
func (r *Region) Conflicts() []WriterConflict {
	var out []WriterConflict
	blocking := map[string][]int{} // signal -> ordinals that blocking-write it
	nba := map[string]int{}        // signal -> first NBA writer ordinal
	for i, f := range r.Facts {
		for _, name := range slices.Sorted(maps.Keys(f.Writes)) {
			blocking[name] = append(blocking[name], i)
		}
		for _, name := range f.NBA {
			if prev, dup := nba[name]; dup {
				out = append(out, WriterConflict{Signal: name, A: prev, B: i, NBA: true})
			} else {
				nba[name] = i
			}
		}
	}
	for i, f := range r.Facts {
		for _, name := range slices.Sorted(maps.Keys(f.Writes)) {
			for _, j := range blocking[name] {
				if j >= i {
					break
				}
				if r.Facts[j].Writes[name].Intersects(f.Writes[name]) {
					out = append(out, WriterConflict{Signal: name, A: j, B: i})
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		x, y := out[a], out[b]
		if x.B != y.B {
			return x.B < y.B
		}
		if x.Signal != y.Signal {
			return x.Signal < y.Signal
		}
		return x.A < y.A
	})
	return out
}

// Edges returns the unique writer->reader dependency edges of the
// combinational region, in deterministic order. An edge exists when a
// reader is sensitive to a signal and some bits it reads of that
// signal are written by another process: running the writer first
// then makes the reader see settled values, which is exactly the
// event-mode fixpoint when the region is conflict-free and acyclic.
func (r *Region) Edges() [][2]int {
	var out [][2]int
	seen := map[[2]int]bool{}
	for ri, rf := range r.Facts {
		for _, name := range slices.Sorted(maps.Keys(rf.Reads)) {
			if !r.Sens[ri](name) {
				continue
			}
			read := rf.Reads[name]
			for wi, wf := range r.Facts {
				if wi == ri {
					continue
				}
				if read.Intersects(wf.Writes[name]) {
					e := [2]int{wi, ri}
					if !seen[e] {
						seen[e] = true
						out = append(out, e)
					}
				}
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}

// Static reports whether every process of the region is pure and no
// two processes write the same bits.
func (r *Region) Static() bool {
	for _, f := range r.Facts {
		if f.Err != nil {
			return false
		}
	}
	return len(r.Conflicts()) == 0
}

// Levelizable reports whether the region admits a run-once static
// schedule: it is Static and Levelize orders its dependency graph.
func (r *Region) Levelizable() bool {
	if !r.Static() {
		return false
	}
	_, ok := Levelize(len(r.Facts), r.Edges())
	return ok
}

// Levelize builds one run-once schedule of n processes over the union
// of the given dependency edge sets (each edge a writer->reader pair of
// ordinals below n), so a batch of designs that share processes shares
// one order valid for every design's edges. It returns the ordinals
// sorted by (level, ordinal), a process's level being the length of the
// longest path to it (Kahn's algorithm), and false when the union graph
// has a cycle.
func Levelize(n int, edgeSets ...[][2]int) ([]int32, bool) {
	adj := make([][]int32, n)
	indeg := make([]int, n)
	seen := make(map[[2]int]bool)
	for _, edges := range edgeSets {
		for _, e := range edges {
			if seen[e] {
				continue
			}
			seen[e] = true
			adj[e[0]] = append(adj[e[0]], int32(e[1]))
			indeg[e[1]]++
		}
	}
	level := make([]int, n)
	queue := make([]int32, 0, n)
	for k := range n {
		if indeg[k] == 0 {
			queue = append(queue, int32(k))
		}
	}
	done := 0
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, v := range adj[u] {
			level[v] = max(level[v], level[u]+1)
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if done < n {
		return nil, false
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(level[a], level[b]), cmp.Compare(a, b))
	})
	return order, true
}

// SCCs computes the strongly connected components of a graph with n
// nodes and the given directed edges (Tarjan, iterative). The lint
// names the members of each combinational loop by them; whether a
// region is acyclic is Levelize's verdict. Components
// are returned with members sorted, ordered by smallest member.
// Self-edges do not arise from Edges (a process is never its own
// dependency), so a component is cyclic iff it has more than one
// member.
func SCCs(n int, edges [][2]int) [][]int {
	adj := make([][]int, n)
	for _, e := range edges {
		if e[0] >= 0 && e[0] < n && e[1] >= 0 && e[1] < n {
			adj[e[0]] = append(adj[e[0]], e[1])
		}
	}
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []int
		out     [][]int
		counter int
	)
	type frame struct{ node, edge int }
	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		work := []frame{{start, 0}}
		index[start] = counter
		low[start] = counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.edge < len(adj[f.node]) {
				next := adj[f.node][f.edge]
				f.edge++
				if index[next] == unvisited {
					index[next] = counter
					low[next] = counter
					counter++
					stack = append(stack, next)
					onStack[next] = true
					work = append(work, frame{next, 0})
				} else if onStack[next] && index[next] < low[f.node] {
					low[f.node] = index[next]
				}
				continue
			}
			node := f.node
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].node
				if low[node] < low[parent] {
					low[parent] = low[node]
				}
			}
			if low[node] == index[node] {
				var comp []int
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == node {
						break
					}
				}
				sort.Ints(comp)
				out = append(out, comp)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}
