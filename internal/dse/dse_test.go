package dse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"chameleon/internal/config"
	"chameleon/internal/sim"
	"chameleon/internal/stats"
)

// fakeResult synthesizes a sim.Result whose snapshot exposes the three
// default objectives with the given values (capacity and energy ride on
// a single fake tier).
func fakeResult(ipc, capacity, energy float64) *sim.Result {
	return &sim.Result{
		GeoMeanIPC: ipc,
		Tiers: []sim.TierResult{{
			Tier:          "hbm",
			CapacityBytes: uint64(capacity),
			EnergyNJ:      energy,
		}},
	}
}

// fakeEval wraps a value function into an Evaluate callback with
// deterministic per-cell provenance.
func fakeEval(vals func(c Cell) (ipc, capacity, energy float64)) func(context.Context, Cell) (Eval, error) {
	return func(_ context.Context, c Cell) (Eval, error) {
		i, cap_, e := vals(c)
		return Eval{
			Result: fakeResult(i, cap_, e),
			Hash:   fmt.Sprintf("h-%s-%s-%d", c.Policy, c.Workload, c.Seed),
			Cached: c.Seed%2 == 0,
		}, nil
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s, err := Spec{}.Normalize()
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if !reflect.DeepEqual(s.Policies, defaultPolicies()) {
		t.Errorf("default policies = %v", s.Policies)
	}
	if len(s.Workloads) != 14 {
		t.Errorf("default workloads = %d, want the 14 Table II profiles", len(s.Workloads))
	}
	if !reflect.DeepEqual(s.Ratios, []int{0}) || !reflect.DeepEqual(s.Scales, []uint64{256}) || !reflect.DeepEqual(s.Seeds, []uint64{42}) {
		t.Errorf("default ratios/scales/seeds = %v %v %v", s.Ratios, s.Scales, s.Seeds)
	}
	if !reflect.DeepEqual(s.Objectives, DefaultObjectives()) {
		t.Errorf("default objectives = %v", s.Objectives)
	}
}

func TestNormalizeErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"unknown policy", Spec{Policies: []string{"no-such-policy"}}, "no-such-policy"},
		{"unknown workload", Spec{Workloads: []string{"no-such-workload"}}, "no-such-workload"},
		{"replay workload", Spec{Workloads: []string{"replay:/tmp/x.cmtr"}}, "trace replays"},
		{"non-power-of-two scale", Spec{Scales: []uint64{100}}, "power of two"},
		{"zero seed", Spec{Seeds: []uint64{0}}, "seed 0"},
		{"empty cache variant", Spec{CacheLevelVariants: [][]config.CacheLevelConfig{{}}}, "cache_level_variants[0]"},
		{"empty tier variant", Spec{MemoryTierVariants: [][]config.MemTierConfig{{}}}, "memory_tier_variants[0]"},
		{"bad objective sense", Spec{Objectives: []Objective{{Key: "ipc_geomean", Sense: "up"}}}, "sense"},
		{"empty objective key", Spec{Objectives: []Objective{{Sense: SenseMax}}}, "no key"},
		{"duplicate objective", Spec{Objectives: []Objective{{Key: "ipc_geomean", Sense: SenseMax}, {Key: "ipc_geomean", Sense: SenseMin}}}, "duplicate"},
		{"negative prune", Spec{PruneAfter: -1}, "prune_after"},
		{"bad ratio", Spec{Ratios: []int{-3}}, "ratio"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Normalize = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

func TestExpandDeterministicDenseAndTierSkip(t *testing.T) {
	twoTier := config.Default(256).MemoryTiers
	threeTier := config.Default(256).WithNVMTier(64 << 20).MemoryTiers
	s := Spec{
		Policies:           []string{"chameleon", "hwc"}, // hwc needs >= 3 tiers
		Workloads:          []string{"bwaves", "mcf"},
		Seeds:              []uint64{1, 2},
		MemoryTierVariants: [][]config.MemTierConfig{twoTier, threeTier},
	}
	cells, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	// Two-tier variant skips hwc: 1×2×2 = 4 cells; three-tier runs both
	// policies: 2×2×2 = 8 cells.
	if len(cells) != 12 {
		t.Fatalf("expanded %d cells, want 12", len(cells))
	}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d; indices must be dense", i, c.Index)
		}
		if c.TierVariant == 0 && c.Policy == "hwc" {
			t.Fatalf("cell %d runs hwc on the two-tier variant", i)
		}
	}
	again, err := s.Expand()
	if err != nil {
		t.Fatalf("Expand again: %v", err)
	}
	if !reflect.DeepEqual(cells, again) {
		t.Error("Expand is not deterministic")
	}
}

// TestCellCountMatchesExpand: the count that bounds a sweep before
// expansion agrees with Expand, tier-depth skips included, and
// saturates instead of overflowing.
func TestCellCountMatchesExpand(t *testing.T) {
	twoTier := config.Default(256).MemoryTiers
	threeTier := config.Default(256).WithNVMTier(64 << 20).MemoryTiers
	for _, s := range []Spec{
		{},
		{Policies: []string{"chameleon", "hwc"}, Seeds: []uint64{1, 2}, Ratios: []int{0, 3},
			MemoryTierVariants: [][]config.MemTierConfig{twoTier, threeTier}},
		{Workloads: []string{"mcf"}, Scales: []uint64{256, 512},
			CacheLevelVariants: [][]config.CacheLevelConfig{config.Default(256).CacheLevels}},
	} {
		n, err := s.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		cells, err := n.Expand()
		if err != nil {
			t.Fatal(err)
		}
		if got := n.CellCount(); got != len(cells) {
			t.Errorf("CellCount = %d, Expand built %d cells", got, len(cells))
		}
	}
	if satMul(math.MaxInt/2, 3) != math.MaxInt {
		t.Error("satMul overflowed instead of saturating")
	}
}

func TestExpandEmptySweepError(t *testing.T) {
	twoTier := config.Default(256).MemoryTiers
	s := Spec{
		Policies:           []string{"hwc"},
		Workloads:          []string{"bwaves"},
		MemoryTierVariants: [][]config.MemTierConfig{twoTier},
	}
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "no runnable cells") {
		t.Errorf("Expand = %v, want empty-sweep error", err)
	}
}

func TestValues(t *testing.T) {
	snap := stats.Snapshot{
		"ipc_geomean":            1.5,
		"mem_hbm.capacity_bytes": 100,
		"mem_ddr.capacity_bytes": 300,
		"mem_hbm.energy_nj":      7,
		"mem_ddr.energy_nj":      11,
	}
	vals, err := Values(snap, DefaultObjectives())
	if err != nil {
		t.Fatalf("Values: %v", err)
	}
	if want := []float64{1.5, 400, 18}; !reflect.DeepEqual(vals, want) {
		t.Errorf("Values = %v, want %v", vals, want)
	}
	if _, err := Values(snap, []Objective{{Key: "no_such_key", Sense: SenseMax}}); err == nil || !strings.Contains(err.Error(), "no_such_key") {
		t.Errorf("missing key error = %v", err)
	}
}

func TestDominates(t *testing.T) {
	objs := []Objective{{Key: "a", Sense: SenseMax}, {Key: "b", Sense: SenseMin}}
	cases := []struct {
		a, b []float64
		want bool
	}{
		{[]float64{2, 1}, []float64{1, 2}, true},           // better on both
		{[]float64{2, 2}, []float64{1, 2}, true},           // better on one, equal other
		{[]float64{1, 2}, []float64{1, 2}, false},          // equal
		{[]float64{2, 3}, []float64{1, 2}, false},          // trade-off
		{[]float64{1, 2}, []float64{2, 1}, false},          // worse
		{[]float64{2, 1}, []float64{1}, false},             // length mismatch
		{[]float64{2, 1}, []float64{math.NaN(), 2}, true},  // NaN is always dominated
		{[]float64{math.NaN(), 1}, []float64{1, 2}, false}, // NaN never dominates
	}
	for i, tc := range cases {
		if got := Dominates(tc.a, tc.b, objs); got != tc.want {
			t.Errorf("case %d: Dominates(%v, %v) = %v, want %v", i, tc.a, tc.b, got, tc.want)
		}
	}
}

// TestFrontProperty is the Pareto property test: over random point
// clouds, the front and dominated sets partition the input, no front
// point is dominated by any point, and every excluded point is
// dominated by some point.
func TestFrontProperty(t *testing.T) {
	objs := DefaultObjectives()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(60)
		points := make([]Point, n)
		for i := range points {
			points[i] = Point{
				Cell:   Cell{Index: i},
				Values: []float64{rng.Float64(), float64(rng.Intn(4)), float64(rng.Intn(4))},
			}
		}
		front, dominated := Front(points, objs)
		if len(front)+dominated != n {
			t.Fatalf("trial %d: front %d + dominated %d != %d points", trial, len(front), dominated, n)
		}
		onFront := map[int]bool{}
		for _, f := range front {
			onFront[f.Cell.Index] = true
			for _, p := range points {
				if Dominates(p.Values, f.Values, objs) {
					t.Fatalf("trial %d: front point %d is dominated by point %d", trial, f.Cell.Index, p.Cell.Index)
				}
			}
		}
		for _, p := range points {
			if onFront[p.Cell.Index] {
				continue
			}
			dom := false
			for _, q := range points {
				if Dominates(q.Values, p.Values, objs) {
					dom = true
					break
				}
			}
			if !dom {
				t.Fatalf("trial %d: point %d excluded from the front but dominated by nothing", trial, p.Cell.Index)
			}
		}
	}
}

// hashVals derives a deterministic pseudo-random objective vector from
// a cell's design axes (never its index), so every execution order and
// concurrency sees identical values.
func hashVals(c Cell) (float64, float64, float64) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d/%d/%d", c.Policy, c.Workload, c.Ratio, c.Scale, c.Seed)
	v := h.Sum64()
	return float64(v%1000) / 100, float64((v>>16)%8) * 1024, float64((v>>32)%16) * 10
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	s := Spec{
		Policies:   []string{"chameleon", "pom", "alloy"},
		Workloads:  []string{"bwaves", "mcf", "lbm"},
		Seeds:      []uint64{1, 2},
		PruneAfter: 2,
	}
	var want []byte
	for _, par := range []int{1, 3, 8} {
		res, err := s.Run(context.Background(), RunOptions{Parallelism: par, Evaluate: fakeEval(hashVals)})
		if err != nil {
			t.Fatalf("par %d: Run: %v", par, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if want == nil {
			want = b
			if res.TotalCells != 18 || res.Evaluated+res.Pruned != 18 {
				t.Fatalf("accounting: total %d evaluated %d pruned %d", res.TotalCells, res.Evaluated, res.Pruned)
			}
			if len(res.Front) == 0 {
				t.Fatal("empty front")
			}
		} else if string(b) != string(want) {
			t.Errorf("par %d: result JSON differs from par 1 (len %d vs %d)", par, len(b), len(want))
		}
	}
}

// TestRunPrunedMatchesUnprunedFront builds a sweep where one policy is
// strictly dominated everywhere and large enough (40 cells > one
// 32-cell wave) for the heuristic to actually skip cells, then checks
// pruning changes nothing about the front: byte-identical
// FrontSignature and DeepEqual front points vs full enumeration.
func TestRunPrunedMatchesUnprunedFront(t *testing.T) {
	seeds := make([]uint64, 10)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	base := Spec{
		Policies:  []string{"chameleon", "pom"},
		Workloads: []string{"bwaves", "mcf"},
		Seeds:     seeds,
	}
	// chameleon trades IPC against capacity across seeds (all on the
	// front); pom is strictly worse on every objective everywhere.
	vals := func(c Cell) (float64, float64, float64) {
		if c.Policy == "chameleon" {
			return 2 + 0.01*float64(c.Seed), 1000 + float64(c.Seed), 50
		}
		return 1, 5000, 500
	}

	full := base
	res, err := full.Run(context.Background(), RunOptions{Parallelism: 4, Evaluate: fakeEval(vals)})
	if err != nil {
		t.Fatalf("unpruned Run: %v", err)
	}
	pruned := base
	pruned.PruneAfter = 2
	resP, err := pruned.Run(context.Background(), RunOptions{Parallelism: 4, Evaluate: fakeEval(vals)})
	if err != nil {
		t.Fatalf("pruned Run: %v", err)
	}

	if res.Pruned != 0 || resP.Pruned == 0 {
		t.Errorf("pruned counts: unpruned run %d, pruned run %d (want 0 and > 0)", res.Pruned, resP.Pruned)
	}
	if resP.Evaluated+resP.Pruned != resP.TotalCells {
		t.Errorf("pruned accounting: %d + %d != %d", resP.Evaluated, resP.Pruned, resP.TotalCells)
	}
	if got, want := resP.FrontSignature(), res.FrontSignature(); got != want {
		t.Errorf("front signatures differ:\npruned:   %s\nunpruned: %s", got, want)
	}
	if !reflect.DeepEqual(resP.Front, res.Front) {
		t.Error("pruning dropped or altered front points")
	}
	// Property (a) on the real runner output: nothing evaluated
	// dominates a front point.
	for _, f := range res.Front {
		for _, p := range res.Points {
			if Dominates(p.Values, f.Values, res.Objectives) {
				t.Fatalf("front point (cell %d) dominated by evaluated cell %d", f.Cell.Index, p.Cell.Index)
			}
		}
	}
	if len(res.Front) != 20 {
		t.Errorf("front has %d points, want the 20 chameleon cells", len(res.Front))
	}
}

func TestRunJoinsWaveErrors(t *testing.T) {
	s := Spec{
		Policies:  []string{"chameleon"},
		Workloads: []string{"bwaves", "mcf", "lbm"},
	}
	boom := errors.New("boom")
	eval := func(_ context.Context, c Cell) (Eval, error) {
		if c.Workload == "bwaves" || c.Workload == "lbm" {
			return Eval{}, boom
		}
		return Eval{Result: fakeResult(1, 1, 1)}, nil
	}
	_, err := s.Run(context.Background(), RunOptions{Parallelism: 4, Evaluate: eval})
	if err == nil || !strings.Contains(err.Error(), "bwaves") || !strings.Contains(err.Error(), "lbm") {
		t.Errorf("Run error = %v, want both failing cells joined", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("Run error does not wrap the cell error: %v", err)
	}
}

func TestRunCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Spec{Policies: []string{"chameleon"}, Workloads: []string{"bwaves"}}
	_, err := s.Run(ctx, RunOptions{Evaluate: fakeEval(hashVals)})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("Run on canceled ctx = %v, want context.Canceled", err)
	}
}

func TestRunRequiresEvaluate(t *testing.T) {
	s := Spec{Policies: []string{"chameleon"}, Workloads: []string{"bwaves"}}
	if _, err := s.Run(context.Background(), RunOptions{}); err == nil || !strings.Contains(err.Error(), "Evaluate") {
		t.Errorf("Run without Evaluate = %v", err)
	}
}

func TestRunMissingObjectiveKey(t *testing.T) {
	s := Spec{
		Policies:   []string{"chameleon"},
		Workloads:  []string{"bwaves"},
		Objectives: []Objective{{Key: "nonexistent_counter", Sense: SenseMax}},
	}
	_, err := s.Run(context.Background(), RunOptions{Evaluate: fakeEval(hashVals)})
	if err == nil || !strings.Contains(err.Error(), "nonexistent_counter") {
		t.Errorf("Run = %v, want missing-key error", err)
	}
}

func TestRunProgressCounts(t *testing.T) {
	s := Spec{Policies: []string{"chameleon"}, Workloads: []string{"bwaves", "mcf"}, Seeds: []uint64{1, 2}}
	var last [4]int
	res, err := s.Run(context.Background(), RunOptions{
		Parallelism: 2,
		Evaluate:    fakeEval(hashVals),
		Progress:    func(done, cached, pruned, total int) { last = [4]int{done, cached, pruned, total} },
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := [4]int{4, res.Cached, 0, 4}; last != want {
		t.Errorf("final progress = %v, want %v", last, want)
	}
	// fakeEval marks even seeds cached: seeds 1,2 over 2 workloads.
	if res.Cached != 2 {
		t.Errorf("cached = %d, want 2", res.Cached)
	}
}
