package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"chameleon/internal/cluster"
	"chameleon/internal/sim"
)

// fakeClock drives suspicion/eviction deterministically: gossip and
// HTTP run for real, but failure-detection time only moves when the
// test advances it.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

const testSuspicion = 100 * time.Millisecond

// clusterNode is one in-process chamd node: real HTTP (httptest), real
// worker pool, manual work stealing.
type clusterNode struct {
	id   string
	s    *Server
	cl   *cluster.Cluster
	srv  *httptest.Server
	addr string
}

// newServerCluster builds n nodes, each seeded with node 0, with the
// background steal loop disabled (tests call stealOnce / GossipOnce /
// Tick at deterministic points).
func newServerCluster(t *testing.T, n int, clock *fakeClock, workers func(i int) int) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		srv := httptest.NewUnstartedServer(nil)
		nodes[i] = &clusterNode{
			id:   fmt.Sprintf("node-%c", 'a'+i),
			srv:  srv,
			addr: "http://" + srv.Listener.Addr().String(),
		}
	}
	for i, nd := range nodes {
		var seeds []string
		if i > 0 {
			seeds = []string{nodes[0].addr}
		}
		nd.cl = cluster.New(cluster.Config{
			NodeID:           nd.id,
			Addr:             nd.addr,
			Peers:            seeds,
			SuspicionTimeout: testSuspicion,
			EvictTimeout:     time.Hour, // dead nodes stay visible to assertions
			Client:           &http.Client{Timeout: 2 * time.Second},
			Now:              clock.Now,
		})
		w := 2
		if workers != nil {
			w = workers(i)
		}
		nd.s = New(Options{Workers: w, Cluster: nd.cl, ClusterManual: true})
		nd.srv.Config.Handler = nd.s.Handler()
		nd.srv.Start()
		nd := nd
		t.Cleanup(func() {
			nd.srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_ = nd.s.Shutdown(ctx)
		})
	}
	return nodes
}

// converge gossips until every node agrees on an n-node ring.
func converge(t *testing.T, nodes []*clusterNode) {
	t.Helper()
	ctx := context.Background()
	for round := 0; round < 200; round++ {
		for _, nd := range nodes {
			_ = nd.cl.GossipOnce(ctx)
		}
		agreed := true
		for _, nd := range nodes {
			if nd.cl.Ring().Len() != len(nodes) {
				agreed = false
			}
		}
		if agreed {
			return
		}
	}
	for _, nd := range nodes {
		t.Logf("%s ring: %v", nd.id, nd.cl.Ring().Nodes())
	}
	t.Fatal("cluster did not converge")
}

// findSpec searches seeds for a spec whose ring owners satisfy pred.
func findSpec(t *testing.T, cl *cluster.Cluster, base func(uint64) JobSpec, pred func(owners []string) bool) JobSpec {
	t.Helper()
	for seed := uint64(1); seed < 4096; seed++ {
		spec := base(seed)
		norm, err := spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if pred(cl.Ring().Owners(norm.Hash(), replication)) {
			return spec
		}
	}
	t.Fatal("no seed satisfies the ownership predicate")
	return JobSpec{}
}

func sumJobsDone(nodes []*clusterNode) int64 {
	var n int64
	for _, nd := range nodes {
		n += nd.s.Metrics().JobsDone.Value()
	}
	return n
}

// TestClusterExactlyOnceWithPeerCache is acceptance test (a): the same
// spec submitted to two different nodes simulates exactly once — the
// second submission is served from the cluster cache with Cached=true.
func TestClusterExactlyOnceWithPeerCache(t *testing.T) {
	clock := newFakeClock()
	nodes := newServerCluster(t, 3, clock, nil)
	converge(t, nodes)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// Owned by a (replica c), so both b and c must route to a.
	spec := findSpec(t, a.cl, fastSpec, func(owners []string) bool {
		return len(owners) == 2 && owners[0] == a.id && owners[1] == c.id
	})

	// Submit via non-owner b: forwarded to a, mirrored locally.
	jb, err := b.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.s.Metrics().JobsForwarded.Value(); got != 1 {
		t.Fatalf("b forwarded %d jobs, want 1", got)
	}
	st := waitTerminal(t, jb, 30*time.Second)
	if st.State != StateDone || st.Node != a.id {
		t.Fatalf("mirror = %s on %q (err %q), want done on %s", st.State, st.Node, st.Error, a.id)
	}
	if st.Cached {
		t.Fatal("first execution must not be served from cache")
	}

	// Same spec via the replica c: a answers from its cache and
	// nothing simulates again.
	jc, err := c.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, jc, 10*time.Second)
	if st.State != StateDone || !st.Cached {
		t.Fatalf("second submission: state=%s cached=%v, want done from cache", st.State, st.Cached)
	}
	if n := sumJobsDone(nodes); n != 1 {
		t.Fatalf("cluster simulated %d times, want exactly 1", n)
	}

	// Both results decode to the same simulation output.
	var r1, r2 sim.Result
	b1, _ := jb.Result()
	b2, _ := jc.Result()
	if err := json.Unmarshal(b1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.MaxCycles != r2.MaxCycles {
		t.Fatalf("results diverge: %d vs %d cycles", r1.MaxCycles, r2.MaxCycles)
	}

	// Job IDs are namespaced per node.
	if jb.ID == jc.ID {
		t.Fatalf("job IDs collide across nodes: %s", jb.ID)
	}
}

// TestClusterNodeDeathReenqueues is acceptance test (b): killing a
// node makes the ring reconverge within the suspicion timeout, and
// jobs it owned complete on the survivors.
func TestClusterNodeDeathReenqueues(t *testing.T) {
	clock := newFakeClock()
	// Node c gets one worker so a slow job can wedge its queue.
	nodes := newServerCluster(t, 3, clock, func(i int) int {
		if i == 2 {
			return 1
		}
		return 2
	})
	converge(t, nodes)
	a, b, c := nodes[0], nodes[1], nodes[2]

	// Wedge c's single worker with a never-ending job c owns itself.
	wedge := findSpec(t, c.cl, slowSpec, func(owners []string) bool {
		return owners[0] == c.id || owners[1] == c.id
	})
	if _, err := c.s.Submit(wedge); err != nil {
		t.Fatal(err)
	}

	// Forward a fast job from a to c; it queues behind the wedge.
	spec := findSpec(t, a.cl, fastSpec, func(owners []string) bool {
		return len(owners) == 2 && owners[0] == c.id && owners[1] == b.id
	})
	ja, err := a.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ja.State() != StateRemote {
		t.Fatalf("job state = %s, want remote mirror", ja.State())
	}

	// Kill c mid-queue: the forwarded job is still waiting for a worker.
	c.srv.CloseClientConnections()
	c.srv.Close()

	// Survivors gossip: exchanges with c fail and mark it suspect.
	ctx := context.Background()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		_ = a.cl.GossipOnce(ctx)
		_ = b.cl.GossipOnce(ctx)
		an, aok := a.cl.Membership().Lookup(c.id)
		bn, bok := b.cl.Membership().Lookup(c.id)
		if aok && bok && an.State != cluster.StateAlive && bn.State != cluster.StateAlive {
			break
		}
	}

	// Advance past the suspicion timeout: suspect becomes dead and the
	// ring reconverges to the two survivors.
	clock.Advance(testSuspicion + time.Millisecond)
	a.cl.Tick(clock.Now())
	b.cl.Tick(clock.Now())
	_ = a.cl.GossipOnce(ctx)
	_ = b.cl.GossipOnce(ctx)
	for _, nd := range []*clusterNode{a, b} {
		ring := nd.cl.Ring().Nodes()
		if len(ring) != 2 {
			t.Fatalf("%s ring = %v, want the 2 survivors", nd.id, ring)
		}
		for _, id := range ring {
			if id == c.id {
				t.Fatalf("%s ring still contains dead node: %v", nd.id, ring)
			}
		}
	}

	// a's mirror notices the dead owner and re-runs the job locally.
	st := waitTerminal(t, ja, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("re-enqueued job = %s (err %q), want done", st.State, st.Error)
	}
	if got := a.s.Metrics().JobsReenqueued.Value(); got != 1 {
		t.Fatalf("jobs_reenqueued = %d, want 1", got)
	}
	if _, err := ja.Result(); err != nil {
		t.Fatalf("result unavailable after failover: %v", err)
	}
}

// TestClusterWorkStealing: an idle node asks a loaded peer for work,
// the peer hands its queued job over and mirrors it; the hand-off CAS
// means the job runs exactly once.
func TestClusterWorkStealing(t *testing.T) {
	clock := newFakeClock()
	// Node a has a single worker; b and c are idle helpers.
	nodes := newServerCluster(t, 3, clock, func(i int) int {
		if i == 0 {
			return 1
		}
		return 2
	})
	converge(t, nodes)
	a, b := nodes[0], nodes[1]

	// Wedge a's worker, then queue a fast job a owns (no forwarding).
	wedge := findSpec(t, a.cl, slowSpec, func(owners []string) bool {
		return owners[0] == a.id || owners[1] == a.id
	})
	if _, err := a.s.Submit(wedge); err != nil {
		t.Fatal(err)
	}
	spec := findSpec(t, a.cl, fastSpec, func(owners []string) bool {
		return owners[0] == a.id || owners[1] == a.id
	})
	jq, err := a.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if jq.State() != StateQueued {
		t.Fatalf("job state = %s, want queued behind the wedge", jq.State())
	}

	// Idle b asks for work and is handed the queued job.
	b.s.stealOnce()
	if got := b.s.Metrics().JobsStolen.Value(); got != 1 {
		t.Fatalf("b stole %d jobs, want 1", got)
	}
	if got := a.s.Metrics().JobsStolenAway.Value(); got != 1 {
		t.Fatalf("a lost %d jobs to thieves, want 1", got)
	}

	// The victim's job completes through its mirror of b's copy.
	st := waitTerminal(t, jq, 30*time.Second)
	if st.State != StateDone {
		t.Fatalf("stolen job = %s (err %q), want done", st.State, st.Error)
	}
	if st.Node != b.id {
		t.Fatalf("stolen job executed on %q, want %s", st.Node, b.id)
	}
	// A second scan finds nothing left to steal.
	b.s.stealOnce()
	if got := b.s.Metrics().JobsStolen.Value(); got != 1 {
		t.Fatalf("second scan stole more work: %d", got)
	}
}

// TestClusterForwardLoopGuard: a submit carrying the forwarded header
// is always served locally, even by a non-owner — forwarding is single
// hop by construction.
func TestClusterForwardLoopGuard(t *testing.T) {
	clock := newFakeClock()
	nodes := newServerCluster(t, 3, clock, nil)
	converge(t, nodes)
	a, b := nodes[0], nodes[1]

	// b does not own this spec; an unmarked submit would forward it.
	spec := findSpec(t, b.cl, fastSpec, func(owners []string) bool {
		return len(owners) == 2 && owners[0] != b.id && owners[1] != b.id
	})
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest(http.MethodPost, b.addr+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.ForwardedHeader, a.id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.State == StateRemote {
		t.Fatal("forwarded submit was forwarded again: loop guard failed")
	}
	if st.Node != b.id {
		t.Fatalf("forwarded submit ran on %q, want %s", st.Node, b.id)
	}
	if got := b.s.Metrics().JobsForwarded.Value(); got != 0 {
		t.Fatalf("b forwarded %d jobs, want 0", got)
	}
}

// TestShutdownWaitsForMirrors: Shutdown gives a remote job the same
// grace as a running one, then cuts it, which cancels the copy on the
// executing node, and returns only after the mirror goroutine exited.
func TestShutdownWaitsForMirrors(t *testing.T) {
	clock := newFakeClock()
	nodes := newServerCluster(t, 3, clock, nil)
	converge(t, nodes)
	b := nodes[1]
	spec := findSpec(t, b.cl, slowSpec, func(owners []string) bool {
		return owners[0] != b.id && owners[1] != b.id
	})
	j, err := b.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != StateRemote {
		t.Fatalf("state = %s, want remote", st.State)
	}
	var owner *clusterNode
	for _, nd := range nodes {
		if nd.id == st.Node {
			owner = nd
		}
	}
	remote, ok := owner.s.Job(st.RemoteID)
	if !ok {
		t.Fatalf("owner %s has no job %s", st.Node, st.RemoteID)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := b.s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want the grace period to run out", err)
	}
	if got := j.State(); got != StateCanceled {
		t.Fatalf("mirror after Shutdown = %s, want canceled", got)
	}
	if got := waitTerminal(t, remote, 10*time.Second).State; got != StateCanceled {
		t.Fatalf("owner's copy = %s, want canceled", got)
	}
	for _, g := range serverGoroutines() {
		if strings.Contains(g, "(*Server).awaitRemote(") || strings.Contains(g, "(*Server).mirror(") {
			t.Fatalf("mirror goroutine outlived Shutdown:\n%s", g)
		}
	}
}

// TestCanceledCountsEachJobOnce: jobs_canceled counts jobs that ended
// canceled, not dequeues. A job that came back from a peer while its
// first pool entry still waited runs once, from that entry, and its
// return is no cancel.
func TestCanceledCountsEachJobOnce(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	wedge, err := s.Submit(slowSpec(40))
	if err != nil {
		t.Fatal(err)
	}
	for wedge.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	q, err := s.Submit(fastSpec(41))
	if err != nil {
		t.Fatal(err)
	}
	// Hand q to a peer, which then dies while q's entry still waits.
	if !q.markRemote("thief", "http://thief", time.Now(), func() {}) {
		t.Fatal("hand-off CAS lost")
	}
	s.reenqueueLocal(q)
	if ok, _ := s.Cancel(wedge.ID); !ok {
		t.Fatal("cancel of the wedge had no effect")
	}
	if st := waitTerminal(t, q, 30*time.Second); st.State != StateDone {
		t.Fatalf("q = %s (err %q), want done", st.State, st.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().JobsQueued.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	canceled := 0
	for _, st := range s.Jobs() {
		if st.State == StateCanceled {
			canceled++
		}
	}
	m := s.Metrics()
	if m.JobsCanceled.Value() != int64(canceled) || canceled != 1 || m.JobsDone.Value() != 1 {
		t.Fatalf("jobs_canceled=%d for %d canceled jobs, jobs_done=%d; want 1, 1, 1",
			m.JobsCanceled.Value(), canceled, m.JobsDone.Value())
	}
}

// TestCancelDuringRoutingThenPeerCacheHit: a client cancels a job
// while its submit is still routing it (the forward to the owner is
// parked), the forward then fails and the replica's cache holds the
// result. The job stays canceled; the cache hit must not end it a
// second time.
func TestCancelDuringRoutingThenPeerCacheHit(t *testing.T) {
	cc := newContractCluster(t, contractScenario{})
	a, b, c := cc.nodes[0], cc.nodes[1], cc.nodes[2]
	spec := findSpec(t, b.cl, fastSpec, func(owners []string) bool {
		return owners[0] == a.id && owners[1] == c.id
	})
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	c.s.cache.Put(norm.Hash(), []byte(`{}`))
	cc.gate.fail.Store(true)
	cc.gate.armed.Store(true)
	type submitted struct {
		j   *Job
		err error
	}
	out := make(chan submitted, 1)
	go func() {
		j, err := b.s.Submit(spec)
		out <- submitted{j, err}
	}()
	select {
	case <-cc.gate.arrived:
	case <-time.After(10 * time.Second):
		t.Fatal("the forward never reached the owner")
	}
	jobs := b.s.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("b lists %d jobs while routing, want 1", len(jobs))
	}
	if ok, err := b.s.Cancel(jobs[0].ID); err != nil || !ok {
		t.Fatalf("Cancel = %v, %v", ok, err)
	}
	cc.gate.open()
	res := <-out
	if res.err != nil {
		t.Fatal(res.err)
	}
	if st := res.j.Status(); st.State != StateCanceled || st.Cached {
		t.Fatalf("job = %s cached=%v, want canceled", st.State, st.Cached)
	}
	if got := b.s.Metrics().JobsCanceled.Value(); got != 1 {
		t.Fatalf("jobs_canceled = %d, want 1", got)
	}
}

// TestStealForwardFailureKeepsQueuedJob: a hand-off whose forward
// cannot reach the thief leaves the job to the pool entry it already
// has, even when the bounded queue is full. A steal request from a
// node the loaded node does not know hands nothing off.
func TestStealForwardFailureKeepsQueuedJob(t *testing.T) {
	cc := newContractCluster(t, contractScenario{
		workers: oneWorkerOnA,
		opts: func(o *Options) {
			o.QueueDepth = 1
			o.StealInterval = time.Hour
		},
	})
	a, b := cc.nodes[0], cc.nodes[1]
	wedge(t, a, 1)
	spec := findSpec(t, a.cl, fastSpec, func(owners []string) bool {
		return owners[0] == a.id || owners[1] == a.id
	})
	jq, err := a.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	steal := func(by string) int {
		t.Helper()
		var resp stealResponse
		if err := cluster.DoJSON(context.Background(), http.DefaultClient, http.MethodPost,
			a.addr+cluster.StealPath, stealRequest{By: by, Max: 1}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Handed
	}
	if n := steal("node-unknown"); n != 0 || jq.State() != StateQueued {
		t.Fatalf("unknown node was handed %d jobs, job %s", n, jq.State())
	}
	// b stays alive in a's view but can no longer be reached.
	b.srv.CloseClientConnections()
	b.srv.Close()
	if n := steal(b.id); n != 0 {
		t.Fatalf("unreachable thief was handed %d jobs", n)
	}
	if st := jq.State(); st != StateQueued {
		t.Fatalf("after the failed hand-off the job is %s, want queued", st)
	}
	for _, st := range a.s.Jobs() {
		if st.State == StateRunning {
			a.s.Cancel(st.ID)
		}
	}
	if st := waitTerminal(t, jq, 30*time.Second); st.State != StateDone || st.Node != a.id {
		t.Fatalf("job = %s on %q (err %q), want done on %s", st.State, st.Node, st.Error, a.id)
	}
}
