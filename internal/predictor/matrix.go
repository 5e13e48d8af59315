package predictor

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/stats"
)

// ComponentState is the predictor's view of one component: its stage (which
// selects the trained service-time model), its current node, and its own
// resource demand U_ci (Table III's migration quantum).
type ComponentState struct {
	Stage  int
	Node   int
	Demand cluster.Vector
}

// MatrixInput carries everything needed to build the performance matrix at
// a scheduling interval: the monitored per-node contention windows, the
// monitored arrival rate, and the trained per-stage models.
type MatrixInput struct {
	Components []ComponentState
	NumStages  int
	NumNodes   int
	// NodeSamples[n] is the monitor's window of contention samples for
	// node n; each sample includes the demand of every program currently
	// hosted there (components and batch jobs alike).
	NodeSamples [][]cluster.Vector
	// Lambda is the monitored request arrival rate (every component of a
	// fan-out service sees the full rate).
	Lambda float64
	// Models holds the trained service-time model per stage.
	Models []*ServiceTimeModel
	Queue  QueueModel
	Params LatencyParams
	// Pool, when non-nil, shards matrix construction and the Algorithm 2
	// incremental updates across its workers. Entries are pure functions of
	// state frozen at each barrier and land in disjoint row (or self-column
	// node) slots, so the
	// matrix — and every scheduling decision derived from it — is
	// bit-identical at any shard count. A nil Pool evaluates inline.
	Pool *shard.Pool
}

func (in *MatrixInput) validate() error {
	if len(in.Components) == 0 {
		return fmt.Errorf("predictor: no components")
	}
	if in.NumNodes <= 0 || len(in.NodeSamples) != in.NumNodes {
		return fmt.Errorf("predictor: node samples (%d) must cover all %d nodes",
			len(in.NodeSamples), in.NumNodes)
	}
	if len(in.Models) < in.NumStages {
		return fmt.Errorf("predictor: %d models for %d stages", len(in.Models), in.NumStages)
	}
	for i, c := range in.Components {
		if c.Stage < 0 || c.Stage >= in.NumStages {
			return fmt.Errorf("predictor: component %d has stage %d outside [0,%d)", i, c.Stage, in.NumStages)
		}
		if c.Node < 0 || c.Node >= in.NumNodes {
			return fmt.Errorf("predictor: component %d on node %d outside [0,%d)", i, c.Node, in.NumNodes)
		}
		if in.Models[c.Stage] == nil {
			return fmt.Errorf("predictor: no model for stage %d", c.Stage)
		}
	}
	return nil
}

// Matrix is the m×k performance matrix L of §IV-C. Entry L[i][j] is the
// predicted reduction in overall service latency if component ci migrates
// from its current node to node nj (Eq. 5); SelfGain[i][j] is the reduction
// in ci's own latency, used for Algorithm 1's tie-break.
//
// The matrix tracks a virtual allocation: Migrate commits a migration
// within the scheduling round and incrementally updates the affected
// entries per Algorithm 2, without waiting for the physical migration.
//
// Each Table III term is evaluated only as often as its inputs change: the
// mover's own latency on nj depends on (stage, node) alone and lives in a
// per-stage self column; the origin-node overrides depend on the row alone
// and are evaluated once per row; only the destination-node terms, which
// depend on both, are evaluated per cell. Eq. 3 reads each stage's members
// in latency order, so a cell's stage maximum touches only its overridden
// members and the first member it leaves alone.
type Matrix struct {
	in MatrixInput

	alloc     []int        // virtual allocation A[m]
	delta     [][4]float64 // per-node signed demand adjustment from virtual moves
	nodeComps [][]int      // node -> component indices under alloc
	cur       []float64    // current predicted latency per component
	stageLat  []float64    // Eq. 3 per stage
	overall   float64      // Eq. 4
	stageOf   [][]int      // stage -> members, by descending cur (NaNs last)
	removed   []bool       // rows frozen after their component migrated
	selfLat   []float64    // [stage*k+node]: Table III row 1, U' = U_nj
	onTouched []bool       // Migrate's full-row marks, cleared after use

	// L and SelfGain are exposed read-only to the scheduler.
	L        [][]float64
	SelfGain [][]float64

	// scratches holds one entry-evaluation scratch per pool shard (slot 0
	// doubles as the sequential scratch); rows are filled concurrently, so
	// every shard needs private row and override state.
	scratches []*scratch
}

// scratch is the per-shard workspace of a row fill: the current row's
// origin-node overrides, and the per-cell marks of which components and
// stages a hypothetical migration overrides.
type scratch struct {
	originIdx   []int     // components co-hosted with the row's mover
	originVal   []float64 // their latency with the mover gone
	overrideSet []int     // epoch marker per component
	stageSet    []int     // epoch marker per stage
	stageMax    []float64 // per stage: max(0, overridden latencies)
	epoch       int
}

// newScratch sizes a scratch for m components over the given stages; a
// row's origin overrides start with room for the busiest node's co-hosts.
func newScratch(m, stages, hosted int) *scratch {
	return &scratch{
		originIdx:   make([]int, 0, hosted),
		originVal:   make([]float64, 0, hosted),
		overrideSet: make([]int, m),
		stageSet:    make([]int, stages),
		stageMax:    make([]float64, stages),
	}
}

// set overrides component h (of stage s) with latency v in the current
// cell. Each component is overridden at most once per cell.
func (sc *scratch) set(h, s int, v float64) {
	sc.overrideSet[h] = sc.epoch
	if sc.stageSet[s] != sc.epoch {
		sc.stageSet[s] = sc.epoch
		sc.stageMax[s] = 0
	}
	if v > sc.stageMax[s] {
		sc.stageMax[s] = v
	}
}

// BuildMatrix constructs the matrix: current latencies for every component
// (Eq. 1→2), stage and overall latencies (Eq. 3–4), the self column, then
// every entry L[i][j] via the Table III contention updates. Its allocation
// count depends on the node, stage and shard counts but not on m.
func BuildMatrix(in MatrixInput) (*Matrix, error) {
	if err := in.validate(); err != nil {
		return nil, err
	}
	m := len(in.Components)
	k := in.NumNodes
	mat := &Matrix{
		in:        in,
		alloc:     make([]int, m),
		delta:     make([][4]float64, k),
		stageLat:  make([]float64, in.NumStages),
		removed:   make([]bool, m),
		onTouched: make([]bool, m),
		L:         make([][]float64, m),
		SelfGain:  make([][]float64, m),
		scratches: make([]*scratch, in.Pool.Shards()),
	}
	// One allocation backs every float table: cur, the self column, then
	// L's and SelfGain's rows as two m×k slabs.
	sk := in.NumStages * k
	floats := make([]float64, m+sk+2*m*k)
	mat.cur, mat.selfLat, floats = floats[:m:m], floats[m:m+sk:m+sk], floats[m+sk:]
	for i := 0; i < m; i++ {
		mat.L[i] = floats[i*k : (i+1)*k : (i+1)*k]
		mat.SelfGain[i] = floats[(m+i)*k : (m+i+1)*k : (m+i+1)*k]
	}

	nodeCount := make([]int, k)
	stageCount := make([]int, in.NumStages)
	maxHosted := 0
	for i, c := range in.Components {
		mat.alloc[i] = c.Node
		nodeCount[c.Node]++
		stageCount[c.Stage]++
		maxHosted = max(maxHosted, nodeCount[c.Node])
	}
	for s := range mat.scratches {
		mat.scratches[s] = newScratch(m, in.NumStages, maxHosted)
	}
	mat.nodeComps = groupBy(nodeCount, in.Components, func(c ComponentState) int { return c.Node })
	mat.stageOf = groupBy(stageCount, in.Components, func(c ComponentState) int { return c.Stage })

	// Every per-component latency and every self-column entry is a pure
	// function of the frozen input (samples, models, allocation), written
	// to its own slot — shardable.
	in.Pool.Run(m, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			mat.cur[i] = mat.latencyOn(in.Components[i].Stage, mat.alloc[i], negv(in.Components[i].Demand))
		}
	})
	in.Pool.Run(k, func(_, lo, hi int) {
		for n := lo; n < hi; n++ {
			mat.refreshSelf(n)
		}
	})
	mat.refreshStageLatencies()

	// Entry fill: each shard owns a contiguous row range and its private
	// scratch; entries read only barrier-frozen state (cur, stageLat,
	// stageOf, selfLat, delta, the input) and write their own cells.
	in.Pool.Run(m, func(s, lo, hi int) {
		sc := mat.scratches[s]
		for i := lo; i < hi; i++ {
			mat.beginRow(i, sc)
			for j := 0; j < k; j++ {
				mat.computeEntry(i, j, sc)
			}
		}
	})
	return mat, nil
}

// groupBy buckets component indices by key into one slab, each bucket in
// ascending index order with capacity equal to its count (so a later
// append reallocates that bucket alone).
func groupBy(count []int, comps []ComponentState, key func(ComponentState) int) [][]int {
	slab := make([]int, len(comps))
	out := make([][]int, len(count))
	off := 0
	for b, n := range count {
		out[b] = slab[off : off : off+n]
		off += n
	}
	for i, c := range comps {
		b := key(c)
		out[b] = append(out[b], i)
	}
	return out
}

// --- small signed-vector helpers (cluster.Vector clamps on Sub, which is
// right for node accounting but wrong for the matrix's signed deltas) ---

type vec4 = [4]float64

func negv(v cluster.Vector) vec4 {
	return vec4{-v[0], -v[1], -v[2], -v[3]}
}

func addv(a vec4, v cluster.Vector, sign float64) vec4 {
	for i := 0; i < 4; i++ {
		a[i] += sign * v[i]
	}
	return a
}

// latencyOn predicts the expected latency of a stage-`stage` component if
// its background were node `node`'s sample window shifted by the virtual
// delta plus `adj` (signed). Each shifted sample is clamped at zero before
// entering the regression, mirroring that real contention metrics are
// non-negative.
func (mat *Matrix) latencyOn(stage, node int, adj vec4) float64 {
	model := mat.in.Models[stage]
	samples := mat.in.NodeSamples[node]
	d := mat.delta[node]
	var w stats.Welford
	for _, s := range samples {
		var bg cluster.Vector
		for r := 0; r < cluster.NumResources; r++ {
			x := s[r] + d[r] + adj[r]
			if x < 0 {
				x = 0
			}
			bg[r] = x
		}
		w.Add(model.Predict(bg))
	}
	var meanX, varX float64
	if w.N() == 0 {
		meanX, varX = model.FallbackMean, 0
	} else {
		meanX, varX = w.Mean(), w.Variance()
	}
	return ExpectedLatency(mat.in.Queue, meanX, varX, mat.in.Lambda, mat.in.Params)
}

// refreshSelf recomputes node n's self column: for every populated stage,
// a mover's latency on n under Table III row 1 (U' = U_nj). It depends on
// n's delta only, so it changes only when a migration touches n.
func (mat *Matrix) refreshSelf(n int) {
	k := mat.in.NumNodes
	for s, members := range mat.stageOf {
		if len(members) > 0 {
			mat.selfLat[s*k+n] = mat.latencyOn(s, n, vec4{})
		}
	}
}

// refreshStageLatencies reorders each stage's members by descending
// current latency, then recomputes Eq. 3 per stage (the head of that
// order) and Eq. 4 overall.
func (mat *Matrix) refreshStageLatencies() {
	for s, members := range mat.stageOf {
		mat.sortByLatency(members)
		max := 0.0
		if len(members) > 0 && mat.cur[members[0]] > max {
			max = mat.cur[members[0]]
		}
		mat.stageLat[s] = max
	}
	mat.overall = OverallLatency(mat.stageLat)
}

// sortByLatency orders members by descending cur with NaNs last, so the
// first member is the stage maximum and any member's latency bounds every
// later member's. Insertion sort: allocation-free, and near-linear on the
// almost-sorted order Migrate leaves behind (only the two touched nodes'
// latencies move).
func (mat *Matrix) sortByLatency(members []int) {
	for x := 1; x < len(members); x++ {
		h := members[x]
		ch := mat.cur[h]
		y := x
		for ; y > 0; y-- {
			cp := mat.cur[members[y-1]]
			if !(ch > cp || (math.IsNaN(cp) && !math.IsNaN(ch))) {
				break
			}
			members[y] = members[y-1]
		}
		members[y] = h
	}
}

// beginRow evaluates row i's origin-node overrides into sc (Table III,
// U' = U − U_ci for every component sharing ci's node). They depend on the
// row, not the column, so a row fill computes them once before its
// computeEntry calls.
func (mat *Matrix) beginRow(i int, sc *scratch) {
	a := mat.alloc[i]
	di := mat.in.Components[i].Demand
	sc.originIdx = sc.originIdx[:0]
	sc.originVal = sc.originVal[:0]
	for _, h := range mat.nodeComps[a] {
		if h == i {
			continue
		}
		ch := mat.in.Components[h]
		adj := negv(ch.Demand)
		adj = addv(adj, di, -1)
		sc.originIdx = append(sc.originIdx, h)
		sc.originVal = append(sc.originVal, mat.latencyOn(ch.Stage, a, adj))
	}
}

// computeEntry fills L[i][j] and SelfGain[i][j]: the hypothetical world
// where ci sits on nj, with the Table III contention updates applied to
// every component on ci's origin and destination nodes. sc is the calling
// shard's private scratch, primed by beginRow(i); everything else it
// touches is read-only during a parallel fill except the (i, j) cells.
func (mat *Matrix) computeEntry(i, j int, sc *scratch) {
	if j == mat.alloc[i] {
		mat.L[i][j] = 0
		mat.SelfGain[i][j] = 0
		return
	}
	ci := mat.in.Components[i]
	sc.epoch++

	// ci itself: U' = U_nj (Table III row 1), from the self column.
	li := mat.selfLat[ci.Stage*mat.in.NumNodes+j]
	sc.set(i, ci.Stage, li)

	// Components remaining on the origin node: U' = U − U_ci (beginRow).
	for x, h := range sc.originIdx {
		sc.set(h, mat.in.Components[h].Stage, sc.originVal[x])
	}
	// Components already on the destination node: U' = U + U_ci.
	for _, h := range mat.nodeComps[j] {
		ch := mat.in.Components[h]
		adj := negv(ch.Demand)
		adj = addv(adj, ci.Demand, +1)
		sc.set(h, ch.Stage, mat.latencyOn(ch.Stage, j, adj))
	}

	// Eq. 3–4 with overrides; only stages containing changed components
	// can change. An affected stage's maximum is the larger of its
	// overridden latencies and the first member (in latency order) left
	// alone, which bounds every later one.
	overall := 0.0
	for s, members := range mat.stageOf {
		if sc.stageSet[s] != sc.epoch {
			overall += mat.stageLat[s]
			continue
		}
		max := sc.stageMax[s]
		for _, h := range members {
			if sc.overrideSet[h] != sc.epoch {
				if mat.cur[h] > max {
					max = mat.cur[h]
				}
				break
			}
		}
		overall += max
	}

	mat.L[i][j] = mat.overall - overall // Eq. 5
	mat.SelfGain[i][j] = mat.cur[i] - li
}

// NumComponents returns m.
func (mat *Matrix) NumComponents() int { return len(mat.in.Components) }

// NumNodes returns k.
func (mat *Matrix) NumNodes() int { return mat.in.NumNodes }

// Allocation returns the current virtual allocation (A[m]). Callers must
// not mutate it.
func (mat *Matrix) Allocation() []int { return mat.alloc }

// Removed reports whether component i has already migrated this round.
func (mat *Matrix) Removed(i int) bool { return mat.removed[i] }

// CurrentOverall returns the predicted overall service latency under the
// current virtual allocation.
func (mat *Matrix) CurrentOverall() float64 { return mat.overall }

// ComponentLatency returns the predicted latency of component i under the
// current virtual allocation.
func (mat *Matrix) ComponentLatency(i int) float64 { return mat.cur[i] }

// Best scans the matrix for the entry with the largest predicted overall
// reduction among non-removed components (Algorithm 1 line 6), breaking
// ties by the migrated component's own latency reduction (line 7). ok is
// false when no candidate rows remain.
func (mat *Matrix) Best() (comp, node int, gain float64, ok bool) {
	const tie = 1e-12
	comp, node = -1, -1
	for i := range mat.L {
		if mat.removed[i] {
			continue
		}
		for j := range mat.L[i] {
			if j == mat.alloc[i] {
				continue
			}
			v := mat.L[i][j]
			switch {
			case comp == -1 || v > gain+tie:
				comp, node, gain = i, j, v
			case v > gain-tie && mat.SelfGain[i][j] > mat.SelfGain[comp][node]:
				comp, node, gain = i, j, v
			}
		}
	}
	return comp, node, gain, comp >= 0
}

// Migrate commits ci → nj in the virtual allocation, removes ci from the
// candidate set, and applies Algorithm 2's incremental update: the origin
// and destination columns are recomputed for every remaining row, and the
// full rows of remaining components hosted on either node are recomputed.
func (mat *Matrix) Migrate(i, j int) {
	a := mat.alloc[i]
	if a == j {
		mat.removed[i] = true
		return
	}
	di := mat.in.Components[i].Demand

	// Commit the virtual move.
	mat.alloc[i] = j
	mat.nodeComps[a] = removeInt(mat.nodeComps[a], i)
	mat.nodeComps[j] = append(mat.nodeComps[j], i)
	mat.delta[a] = addv(mat.delta[a], di, -1)
	mat.delta[j] = addv(mat.delta[j], di, +1)
	mat.removed[i] = true

	// Refresh what the two touched nodes' deltas feed: their self-column
	// entries, and the cached current latencies of everything hosted there
	// (including the migrated component); then Eq. 3–4.
	touched := [2]int{a, j}
	for _, n := range touched {
		mat.refreshSelf(n)
		for _, h := range mat.nodeComps[n] {
			mat.cur[h] = mat.latencyOn(mat.in.Components[h].Stage, n, negv(mat.in.Components[h].Demand))
			mat.onTouched[h] = true
		}
	}
	mat.refreshStageLatencies()

	// Algorithm 2's incremental update, one barrier region over a
	// canonical row worklist: rows hosted on a touched node recompute all
	// their columns (line 7–10), every other live row just the origin and
	// destination columns (line 1–5). Each row belongs to exactly one
	// shard, entries read only the state committed above, and a full-row
	// recompute subsumes the two-column one, so the sharded fill lands the
	// same floats the sequential loops did.
	mat.in.Pool.Run(len(mat.L), func(s, lo, hi int) {
		sc := mat.scratches[s]
		for h := lo; h < hi; h++ {
			if mat.removed[h] {
				continue
			}
			mat.beginRow(h, sc)
			if mat.onTouched[h] {
				for v := 0; v < mat.in.NumNodes; v++ {
					mat.computeEntry(h, v, sc)
				}
				continue
			}
			mat.computeEntry(h, a, sc)
			mat.computeEntry(h, j, sc)
		}
	})
	for _, n := range touched {
		for _, h := range mat.nodeComps[n] {
			mat.onTouched[h] = false
		}
	}
}

func removeInt(s []int, x int) []int {
	for i, v := range s {
		if v == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}
