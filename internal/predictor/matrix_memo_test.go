package predictor

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/shard"
	"repro/internal/xrand"
)

// perCellOracle is the reference evaluation of the performance matrix: for
// every cell it calls latencyOn once per Table III term and rescans every
// member of every affected stage, sharing no cache with the Matrix beyond
// its virtual allocation (alloc, delta). The memoized matrix must land the
// same bits in every cell it writes.
type perCellOracle struct {
	mat      *Matrix
	cur      []float64
	stageLat []float64
	overall  float64
}

func newPerCellOracle(mat *Matrix) *perCellOracle {
	comps := mat.in.Components
	o := &perCellOracle{
		mat:      mat,
		cur:      make([]float64, len(comps)),
		stageLat: make([]float64, mat.in.NumStages),
	}
	for h, c := range comps {
		o.cur[h] = mat.latencyOn(c.Stage, mat.alloc[h], negv(c.Demand))
	}
	for h, c := range comps {
		if o.cur[h] > o.stageLat[c.Stage] {
			o.stageLat[c.Stage] = o.cur[h]
		}
	}
	o.overall = OverallLatency(o.stageLat)
	return o
}

// entry evaluates cell (i, j) from scratch.
func (o *perCellOracle) entry(i, j int) (l, self float64) {
	mat := o.mat
	comps := mat.in.Components
	a := mat.alloc[i]
	if j == a {
		return 0, 0
	}
	di := comps[i].Demand
	overrides := map[int]float64{}
	li := mat.latencyOn(comps[i].Stage, j, vec4{})
	overrides[i] = li
	for h, c := range comps {
		switch {
		case h == i:
		case mat.alloc[h] == a:
			overrides[h] = mat.latencyOn(c.Stage, a, addv(negv(c.Demand), di, -1))
		case mat.alloc[h] == j:
			overrides[h] = mat.latencyOn(c.Stage, j, addv(negv(c.Demand), di, +1))
		}
	}
	overall := 0.0
	for s := 0; s < mat.in.NumStages; s++ {
		affected := false
		for h := range overrides {
			if comps[h].Stage == s {
				affected = true
			}
		}
		if !affected {
			overall += o.stageLat[s]
			continue
		}
		max := 0.0
		for h, c := range comps {
			if c.Stage != s {
				continue
			}
			v := o.cur[h]
			if ov, ok := overrides[h]; ok {
				v = ov
			}
			if v > max {
				max = v
			}
		}
		overall += max
	}
	return o.overall - overall, o.cur[i] - li
}

// memoTestInput is a 4-populated-stage input (plus an empty fifth stage
// with no model) over 6 nodes: per-stage models, distinct per-component
// demands, several components per node, and deliberate ties — twin
// components sharing stage, node and demand, two nodes with identical
// windows, and one node with an empty window (every stage falls back to
// its model's mean there).
func memoTestInput(t *testing.T) MatrixInput {
	t.Helper()
	const m, k, stages = 30, 6, 5
	src := xrand.New(41)
	models := make([]*ServiceTimeModel, stages)
	for s := 0; s < stages-1; s++ {
		model, err := Train(syntheticSamples(200, 0.01, int64(60+s)), 1)
		if err != nil {
			t.Fatal(err)
		}
		models[s] = model
	}
	comps := make([]ComponentState, m)
	for i := range comps {
		scale := 0.4 + 0.05*float64(i)
		comps[i] = ComponentState{
			Stage:  i % (stages - 1),
			Node:   src.Intn(k),
			Demand: cluster.Vector{0.9 * scale, 6 * scale, 8 * scale, 6 * scale},
		}
	}
	// Twins: same stage, node and demand as their partner.
	for _, tw := range [][2]int{{4, 8}, {5, 9}, {13, 17}} {
		comps[tw[1]] = comps[tw[0]]
	}
	cap := cluster.DefaultCapacity()
	nodeSamples := make([][]cluster.Vector, k)
	for n := 0; n < k-1; n++ {
		base := cap.Scale(0.1 + 0.5*src.Float64())
		win := make([]cluster.Vector, 8)
		for x := range win {
			v := base
			for r := 0; r < cluster.NumResources; r++ {
				v[r] *= src.LogNormalMean(1, 0.03)
			}
			win[x] = v
		}
		nodeSamples[n] = win
	}
	nodeSamples[1] = append([]cluster.Vector(nil), nodeSamples[0]...)
	nodeSamples[k-1] = nil
	for _, c := range comps {
		for x := range nodeSamples[c.Node] {
			nodeSamples[c.Node][x] = nodeSamples[c.Node][x].Add(c.Demand)
		}
	}
	return MatrixInput{
		Components:  comps,
		NumStages:   stages,
		NumNodes:    k,
		NodeSamples: nodeSamples,
		Lambda:      70,
		Models:      models,
		Queue:       MG1,
		Params:      DefaultLatencyParams(),
	}
}

// TestMatrixMemoizedMatchesPerCell pins the memoized matrix (self column,
// once-per-row origin overrides, latency-ordered stage maxima) to the
// per-cell oracle with ==, after the build and after every Migrate of a
// full greedy round: cells Algorithm 2 recomputes must match the oracle,
// every other cell must keep its previous bits.
func TestMatrixMemoizedMatchesPerCell(t *testing.T) {
	base := memoTestInput(t)
	for _, shards := range []int{1, 2, 4} {
		pool := shard.NewPool(shards)
		in := base
		in.Pool = pool
		mat, err := BuildMatrix(in)
		if err != nil {
			t.Fatal(err)
		}
		m, k := mat.NumComponents(), mat.NumNodes()

		ties := 0
		for h := range base.Components {
			for g := h + 1; g < m; g++ {
				if mat.cur[h] == mat.cur[g] && base.Components[h].Stage == base.Components[g].Stage {
					ties++
				}
			}
		}
		if ties == 0 {
			t.Fatal("input has no tied component latencies")
		}

		o := newPerCellOracle(mat)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				wl, ws := o.entry(i, j)
				if mat.L[i][j] != wl || mat.SelfGain[i][j] != ws {
					t.Fatalf("shards=%d build: cell (%d,%d) = (%v,%v), oracle (%v,%v)",
						shards, i, j, mat.L[i][j], mat.SelfGain[i][j], wl, ws)
				}
			}
		}

		prevL := make([][]float64, m)
		prevG := make([][]float64, m)
		for step := 0; ; step++ {
			i, j, _, ok := mat.Best()
			if !ok {
				if step != m {
					t.Fatalf("shards=%d: round ended after %d of %d migrations", shards, step, m)
				}
				break
			}
			for h := 0; h < m; h++ {
				prevL[h] = append(prevL[h][:0], mat.L[h]...)
				prevG[h] = append(prevG[h][:0], mat.SelfGain[h]...)
			}
			a := mat.Allocation()[i]
			mat.Migrate(i, j)

			o = newPerCellOracle(mat)
			if mat.CurrentOverall() != o.overall {
				t.Fatalf("shards=%d step %d: overall %v, oracle %v", shards, step, mat.CurrentOverall(), o.overall)
			}
			for h := 0; h < m; h++ {
				if mat.ComponentLatency(h) != o.cur[h] {
					t.Fatalf("shards=%d step %d: component %d latency %v, oracle %v",
						shards, step, h, mat.ComponentLatency(h), o.cur[h])
				}
				n := mat.Allocation()[h]
				fullRow := !mat.Removed(h) && (n == a || n == j)
				for v := 0; v < k; v++ {
					recomputed := !mat.Removed(h) && (fullRow || v == a || v == j)
					wl, ws := prevL[h][v], prevG[h][v]
					if recomputed {
						wl, ws = o.entry(h, v)
					}
					if mat.L[h][v] != wl || mat.SelfGain[h][v] != ws {
						t.Fatalf("shards=%d step %d (migrate %d: %d→%d): cell (%d,%d) recomputed=%v = (%v,%v), want (%v,%v)",
							shards, step, i, a, j, h, v, recomputed, mat.L[h][v], mat.SelfGain[h][v], wl, ws)
					}
				}
			}
		}
		pool.Close()
	}
}

// TestBuildMatrixAllocsIndependentOfM pins that the matrix's storage is
// slab-allocated: quadrupling m at fixed k, stages and shards leaves
// BuildMatrix's allocation count unchanged.
func TestBuildMatrixAllocsIndependentOfM(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, shards := range []int{1, 2} {
		pool := shard.NewPool(shards)
		allocs := func(m int) float64 {
			in := testMatrixInput(t, m, 8, 80, 11)
			in.Pool = pool
			return testing.AllocsPerRun(5, func() {
				if _, err := BuildMatrix(in); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(24), allocs(96)
		if large != small {
			t.Errorf("shards=%d: BuildMatrix allocates %v at m=24 but %v at m=96", shards, small, large)
		}
		pool.Close()
	}
}

// largeClusterInput is the large-cluster control-plane shape: m=194
// (nutch-search with fan-out 192) over k=96 nodes, W=10 samples a window.
func largeClusterInput(b *testing.B) MatrixInput {
	return windowedMatrixInput(b, 194, 96, 10, 100, 1)
}

// BenchmarkBuildMatrix times one performance-matrix build (Fig. 7's
// analysis) at the large-cluster shape.
func BenchmarkBuildMatrix(b *testing.B) {
	in := largeClusterInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := BuildMatrix(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleRound times Algorithm 1's search alone at the
// large-cluster shape: Best then Migrate until no candidate is left, on a
// freshly built matrix (the build is untimed).
func BenchmarkScheduleRound(b *testing.B) {
	in := largeClusterInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		mat, err := BuildMatrix(in)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for {
			i, j, _, ok := mat.Best()
			if !ok {
				break
			}
			mat.Migrate(i, j)
		}
	}
}
