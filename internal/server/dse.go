package server

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"

	"chameleon/internal/config"
	"chameleon/internal/dse"
	"chameleon/internal/experiments"
	"chameleon/internal/sim"
)

// runDSE executes a design-space sweep job. Every expanded cell
// normalizes into a KindSim spec whose content hash keys the shared
// result cache, so cells are served (in order of preference) from the
// local cache, a ring peer's cache, a ring peer's worker pool (the
// cell's hash owner — a cluster shards the sweep), or an inline local
// simulation. Cells run inside this job's worker slot, never through
// the local pool, so a sweep cannot deadlock the pool that runs it.
func (s *Server) runDSE(ctx context.Context, j *Job) (any, error) {
	par := j.Spec.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	res, err := j.Spec.DSE.Run(ctx, dse.RunOptions{
		Parallelism: par,
		Progress:    j.setDSEProgress,
		Evaluate: func(ctx context.Context, c dse.Cell) (dse.Eval, error) {
			return s.evalDSECell(ctx, j.Spec, c)
		},
	})
	if err != nil {
		return nil, err
	}
	s.metrics.DSECellsPruned.Add(int64(res.Pruned))
	return res, nil
}

// cellSpec normalizes one sweep cell into the KindSim spec that keys
// the content-addressed result cache. Shared simulation parameters
// (instructions, warm-up, threads) come from the parent job; the
// cell's variant indices select concrete hierarchy / tier overlays
// from the sweep spec.
func cellSpec(parent JobSpec, c dse.Cell) (JobSpec, error) {
	cs := JobSpec{
		Kind:         KindSim,
		Policy:       c.Policy,
		Workload:     c.Workload,
		Ratio:        c.Ratio,
		Scale:        c.Scale,
		Seed:         c.Seed,
		Instructions: parent.Instructions,
		Warmup:       parent.Warmup,
		Threads:      parent.Threads,
	}
	if c.CacheVariant >= 0 {
		cs.CacheLevels = parent.DSE.CacheLevelVariants[c.CacheVariant]
	}
	if c.TierVariant >= 0 {
		cs.MemoryTiers = config.CloneTiers(parent.DSE.MemoryTierVariants[c.TierVariant])
	}
	return cs.Normalize()
}

// decodeEval turns cached result bytes back into an evaluation.
func decodeEval(b []byte, hash string, cached bool) (dse.Eval, error) {
	var r sim.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return dse.Eval{}, fmt.Errorf("decode cached cell result %.12s: %w", hash, err)
	}
	return dse.Eval{Result: &r, Hash: hash, Cached: cached}, nil
}

// evalDSECell resolves one sweep cell: local cache, then peer cache,
// then execution on the cell's ring owner, then an inline local
// simulation (also the fallback whenever a peer path fails — a dead
// peer costs the sweep capacity, never a cell).
func (s *Server) evalDSECell(ctx context.Context, parent JobSpec, c dse.Cell) (dse.Eval, error) {
	cs, err := cellSpec(parent, c)
	if err != nil {
		return dse.Eval{}, err
	}
	hash := cs.Hash()
	if b, ok := s.cache.Get(hash); ok {
		s.metrics.DSECellsCached.Add(1)
		return decodeEval(b, hash, true)
	}
	if s.clustered() {
		owners := s.cl.Owners(hash, replication)
		if b, ok := s.peerCacheGet(hash, owners); ok {
			s.metrics.PeerCacheHits.Add(1)
			s.metrics.DSECellsCached.Add(1)
			s.cache.Put(hash, b)
			return decodeEval(b, hash, true)
		}
		// Run the cell on its first reachable owner; the forwarded
		// header makes the owner run it locally (or hand it to an idle
		// peer). A failed wait falls through to the inline simulation.
		remote := owners
		if s.cl.IsOwner(hash, replication) {
			remote = nil
		}
		for _, o := range remote {
			if !s.cl.Alive(o.ID) {
				continue
			}
			rid, err := s.forwardTo(o, cs)
			if err != nil {
				continue
			}
			b, _, err := s.awaitRemote(ctx, o, rid, nil)
			if err != nil {
				break
			}
			s.metrics.DSECellsRemote.Add(1)
			s.cache.Put(hash, b)
			return decodeEval(b, hash, false)
		}
	}

	o, err := cs.SimOptions()
	if err != nil {
		return dse.Eval{}, err
	}
	o.Threads = experiments.EffectiveThreads(o.Threads, s.opts.Workers)
	sys, err := sim.New(o)
	if err != nil {
		return dse.Eval{}, err
	}
	res, err := sys.RunContext(ctx, cs.Instructions)
	if err != nil {
		return dse.Eval{}, err
	}
	s.metrics.SimCycles.Add(int64(res.MaxCycles))
	s.metrics.ObserveSim(res)
	s.metrics.DSECellsSimulated.Add(1)
	b, err := marshalResult(res)
	if err != nil {
		return dse.Eval{}, err
	}
	s.cache.Put(hash, b)
	if s.clustered() {
		go s.writeBackResult(hash, b)
	}
	return dse.Eval{Result: res, Hash: hash}, nil
}
