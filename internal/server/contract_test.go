package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"chameleon/internal/cluster"
	"chameleon/internal/dse"
)

// contractIterations is how many times every contract scenario runs,
// each time on a fresh cluster.
const contractIterations = 3

// contractCluster is one scenario's testbed: three in-process nodes
// with their background cluster loops running, a fake membership clock
// (a node dies only when a scenario kills it and advances the clock),
// and a gate that can park peer-forwarded submits.
type contractCluster struct {
	nodes []*clusterNode
	clock *fakeClock
	gate  *forwardGate
}

// forwardGate parks the first peer-forwarded submit that arrives
// while it is armed, so a scenario can act while a node waits for a
// forward's reply.
type forwardGate struct {
	armed   atomic.Bool
	fail    atomic.Bool // refuse the parked forward once released
	arrived chan string // ID of the node holding the parked forward
	release chan struct{}
	once    sync.Once
}

func (g *forwardGate) open() { g.once.Do(func() { close(g.release) }) }

func (g *forwardGate) wrap(id string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" &&
			r.Header.Get(cluster.ForwardedHeader) != "" && g.armed.CompareAndSwap(true, false) {
			g.arrived <- id
			<-g.release
			if g.fail.Load() {
				http.Error(w, "refused", http.StatusServiceUnavailable)
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// contractScenario is one row of the contract: setup sizes the
// cluster, run acts on it and verifies the outcome.
type contractScenario struct {
	name    string
	workers func(i int) int // per-node worker count; nil = 2 each
	opts    func(o *Options)
	run     func(t *testing.T, cc *contractCluster)
}

func newContractCluster(t *testing.T, sc contractScenario) *contractCluster {
	t.Helper()
	cc := &contractCluster{
		clock: newFakeClock(),
		gate:  &forwardGate{arrived: make(chan string, 1), release: make(chan struct{})},
	}
	cc.nodes = make([]*clusterNode, 3)
	for i := range cc.nodes {
		srv := httptest.NewUnstartedServer(nil)
		cc.nodes[i] = &clusterNode{
			id:   fmt.Sprintf("node-%c", 'a'+i),
			srv:  srv,
			addr: "http://" + srv.Listener.Addr().String(),
		}
	}
	for i, nd := range cc.nodes {
		var seeds []string
		if i > 0 {
			seeds = []string{cc.nodes[0].addr}
		}
		nd.cl = cluster.New(cluster.Config{
			NodeID:           nd.id,
			Addr:             nd.addr,
			Peers:            seeds,
			SuspicionTimeout: testSuspicion,
			EvictTimeout:     time.Hour,
			Client:           &http.Client{Timeout: 2 * time.Second},
			Now:              cc.clock.Now,
		})
		o := Options{Workers: 2, Cluster: nd.cl}
		if sc.workers != nil {
			o.Workers = sc.workers(i)
		}
		if sc.opts != nil {
			sc.opts(&o)
		}
		nd.s = New(o)
		nd.srv.Config.Handler = cc.gate.wrap(nd.id, nd.s.Handler())
		nd.srv.Start()
		nd := nd
		t.Cleanup(func() {
			nd.srv.CloseClientConnections()
			nd.srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			_ = nd.s.Shutdown(ctx)
		})
	}
	// Registered last so it runs first: a parked forward must not hold
	// up the servers' Close.
	t.Cleanup(cc.gate.open)
	converge(t, cc.nodes)
	return cc
}

// node returns the testbed node with the given ID.
func (cc *contractCluster) node(t *testing.T, id string) *clusterNode {
	t.Helper()
	for _, nd := range cc.nodes {
		if nd.id == id {
			return nd
		}
	}
	t.Fatalf("no node %q in the testbed", id)
	return nil
}

// kill stops nd's HTTP server and drives the survivors' failure
// detector until both have declared it dead.
func (cc *contractCluster) kill(t *testing.T, nd *clusterNode) {
	t.Helper()
	nd.srv.CloseClientConnections()
	nd.srv.Close()
	var survivors []*clusterNode
	for _, o := range cc.nodes {
		if o != nd {
			survivors = append(survivors, o)
		}
	}
	ctx := context.Background()
	waitFor(t, 10*time.Second, "survivors suspect the killed node", func() bool {
		seen := true
		for _, o := range survivors {
			_ = o.cl.GossipOnce(ctx)
			if n, ok := o.cl.Membership().Lookup(nd.id); ok && n.State == cluster.StateAlive {
				seen = false
			}
		}
		return seen
	})
	cc.clock.Advance(testSuspicion + time.Millisecond)
	for _, o := range survivors {
		o.cl.Tick(cc.clock.Now())
	}
	for _, o := range survivors {
		if o.cl.Alive(nd.id) {
			t.Fatalf("%s still thinks %s is alive", o.id, nd.id)
		}
	}
}

// wedge occupies one of nd's workers with a job that never ends on
// its own, and waits until it runs.
func wedge(t *testing.T, nd *clusterNode, seed uint64) {
	t.Helper()
	spec := findSpec(t, nd.cl, func(s uint64) JobSpec { return slowSpec(seed*4096 + s) }, func(owners []string) bool {
		return owners[0] == nd.id || owners[1] == nd.id
	})
	j, err := nd.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "wedge job running", func() bool { return j.State() == StateRunning })
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting for: %s", timeout, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// httpJobs lists a node's jobs over its public API.
func httpJobs(t *testing.T, addr string) []JobStatus {
	t.Helper()
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := cluster.DoJSON(context.Background(), http.DefaultClient, http.MethodGet, addr+"/v1/jobs", nil, &out); err != nil {
		t.Fatal(err)
	}
	return out.Jobs
}

// httpJob reads one job's status over the public API.
func httpJob(t *testing.T, addr, id string) JobStatus {
	t.Helper()
	var st JobStatus
	if err := cluster.DoJSON(context.Background(), http.DefaultClient, http.MethodGet, addr+"/v1/jobs/"+id, nil, &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// copiesOf returns the jobs with the given content hash on every node
// except skip.
func (cc *contractCluster) copiesOf(t *testing.T, hash string, skip *clusterNode) map[*clusterNode][]JobStatus {
	t.Helper()
	out := map[*clusterNode][]JobStatus{}
	for _, nd := range cc.nodes {
		if nd == skip {
			continue
		}
		for _, st := range httpJobs(t, nd.addr) {
			if st.Hash == hash {
				out[nd] = append(out[nd], st)
			}
		}
	}
	return out
}

// waitCopiesCanceled waits until nd holds at least one job with hash
// and every such job has ended canceled.
func waitCopiesCanceled(t *testing.T, nd *clusterNode, hash string) {
	t.Helper()
	waitFor(t, 10*time.Second, "the executing node's copy ends canceled", func() bool {
		n := 0
		for _, st := range httpJobs(t, nd.addr) {
			if st.Hash != hash {
				continue
			}
			if st.State != StateCanceled {
				return false
			}
			n++
		}
		return n > 0
	})
}

// forwardedSlowJob submits a never-ending job through a node that does
// not own it and waits until the owner's copy runs. It returns the
// submitting node, its mirror, and the owner.
func forwardedSlowJob(t *testing.T, cc *contractCluster) (*clusterNode, *Job, *clusterNode) {
	t.Helper()
	b := cc.nodes[1]
	spec := findSpec(t, b.cl, slowSpec, func(owners []string) bool {
		return owners[0] != b.id && owners[1] != b.id
	})
	j, err := b.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != StateRemote || st.NodeAddr == "" || st.RemoteID == "" {
		t.Fatalf("submit through non-owner = %+v, want a remote mirror", st)
	}
	owner := cc.node(t, st.Node)
	waitFor(t, 10*time.Second, "owner's copy running", func() bool {
		return httpJob(t, st.NodeAddr, st.RemoteID).State == StateRunning
	})
	return b, j, owner
}

// queuedBehindWedge makes nodes[0] (one worker) wedged and queues a
// job it owns behind the wedge, so only an idle peer can run it.
func queuedBehindWedge(t *testing.T, cc *contractCluster, mk func(uint64) JobSpec, iter int) (*clusterNode, *Job) {
	t.Helper()
	a := cc.nodes[0]
	wedge(t, a, uint64(iter+1))
	spec := findSpec(t, a.cl, mk, func(owners []string) bool {
		return owners[0] == a.id || owners[1] == a.id
	})
	j, err := a.s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return a, j
}

func oneWorkerOnA(i int) int {
	if i == 0 {
		return 1
	}
	return 2
}

// TestClusterContract is the cluster's behavioural contract: exactly
// once execution, cross-node cache reuse, re-execution after a node
// death, work stealing, DSE sharding and cancel propagation. It uses
// only what a client sees — Submit, Cancel, the HTTP API, JobStatus
// and metrics — so it holds for any implementation of the peer
// protocol. Each scenario runs setup → act → verify → teardown on a
// fresh 3-node cluster, contractIterations times.
func TestClusterContract(t *testing.T) {
	var iter int // current iteration, for scenarios that vary seeds
	scenarios := []contractScenario{
		{
			name: "same spec through two non-owners simulates once",
			run: func(t *testing.T, cc *contractCluster) {
				a, b, c := cc.nodes[0], cc.nodes[1], cc.nodes[2]
				spec := findSpec(t, a.cl, fastSpec, func(owners []string) bool {
					return owners[0] == a.id && owners[1] == c.id
				})
				jb, err := b.s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				first := waitTerminal(t, jb, 30*time.Second)
				if first.State != StateDone || first.Cached {
					t.Fatalf("first copy: state=%s cached=%v err=%q, want a fresh done", first.State, first.Cached, first.Error)
				}
				jc, err := c.s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				second := waitTerminal(t, jc, 10*time.Second)
				if second.State != StateDone || !second.Cached {
					t.Fatalf("second copy: state=%s cached=%v, want done from cache", second.State, second.Cached)
				}
				if n := sumJobsDone(cc.nodes); n != 1 {
					t.Fatalf("cluster simulated %d times, want 1", n)
				}
				r1, _ := jb.Result()
				r2, _ := jc.Result()
				if string(r1) != string(r2) {
					t.Fatal("the two copies return different results")
				}
			},
		},
		{
			name: "forwarded job completes on a survivor when its owner dies",
			workers: func(i int) int {
				if i == 2 {
					return 1
				}
				return 2
			},
			// A steal would move the job off the owner before the kill.
			opts: func(o *Options) { o.StealInterval = time.Hour },
			run: func(t *testing.T, cc *contractCluster) {
				a, b, c := cc.nodes[0], cc.nodes[1], cc.nodes[2]
				wedge(t, c, uint64(iter+1))
				spec := findSpec(t, a.cl, fastSpec, func(owners []string) bool {
					return owners[0] == c.id && owners[1] == b.id
				})
				ja, err := a.s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				if ja.State() != StateRemote {
					t.Fatalf("state = %s, want a mirror of c's queued copy", ja.State())
				}
				cc.kill(t, c)
				st := waitTerminal(t, ja, 30*time.Second)
				if st.State != StateDone || st.Node == c.id {
					t.Fatalf("after owner death: state=%s node=%q err=%q, want done on a survivor", st.State, st.Node, st.Error)
				}
				if _, err := ja.Result(); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name:    "queued job is stolen by an idle peer and runs once",
			workers: oneWorkerOnA,
			run: func(t *testing.T, cc *contractCluster) {
				a, jq := queuedBehindWedge(t, cc, fastSpec, iter)
				st := waitTerminal(t, jq, 30*time.Second)
				if st.State != StateDone || st.Node == "" || st.Node == a.id {
					t.Fatalf("stolen job: state=%s node=%q err=%q, want done on a peer", st.State, st.Node, st.Error)
				}
				if n := sumJobsDone(cc.nodes); n != 1 {
					t.Fatalf("cluster simulated %d times, want 1", n)
				}
				// The job can end before the hand-off's reply reaches the
				// thief, which counts the steal only then.
				var stolen, away int64
				count := func() bool {
					stolen, away = 0, 0
					for _, nd := range cc.nodes {
						stolen += nd.s.Metrics().JobsStolen.Value()
						away += nd.s.Metrics().JobsStolenAway.Value()
					}
					return stolen >= 1 && away >= 1
				}
				waitFor(t, 10*time.Second, "the steal is counted", count)
				if stolen != 1 || away != 1 {
					t.Fatalf("jobs_stolen=%d jobs_stolen_away=%d, want 1 and 1", stolen, away)
				}
			},
		},
		{
			name: "dse sweep simulates each cell once and a resweep none",
			run: func(t *testing.T, cc *contractCluster) {
				work := func(sweeps int64) int64 {
					var n int64
					for _, nd := range cc.nodes {
						n += nd.s.Metrics().DSECellsSimulated.Value()
					}
					return n + sumJobsDone(cc.nodes) - sweeps
				}
				spec := fastDSESpec()
				norm, err := spec.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				if _, res := runDSEJob(t, dseOwnerNode(t, cc.nodes, norm.Hash()).s, spec); res.Evaluated != 8 {
					t.Fatalf("first sweep evaluated %d cells, want 8", res.Evaluated)
				}
				if got := work(1); got != 8 {
					t.Fatalf("cluster simulated %d cells for an 8-cell sweep", got)
				}
				changed := fastDSESpec()
				changed.DSE.Objectives = []dse.Objective{
					{Key: "ipc_geomean", Sense: dse.SenseMax},
					{Key: "amat_cycles", Sense: dse.SenseMin},
				}
				norm2, err := changed.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				if _, res := runDSEJob(t, dseOwnerNode(t, cc.nodes, norm2.Hash()).s, changed); res.Cached != res.TotalCells {
					t.Fatalf("resweep served %d/%d cells from cache", res.Cached, res.TotalCells)
				}
				if got := work(2); got != 8 {
					t.Fatalf("resweep simulated %d more cells, want 0", got-8)
				}
			},
		},
		{
			name: "cancel of a forwarded job over HTTP stops the owner's copy",
			run: func(t *testing.T, cc *contractCluster) {
				b, j, owner := forwardedSlowJob(t, cc)
				req, _ := http.NewRequest(http.MethodDelete, b.addr+"/v1/jobs/"+j.ID, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if st := waitTerminal(t, j, 5*time.Second); st.State != StateCanceled {
					t.Fatalf("mirror state = %s, want canceled", st.State)
				}
				waitCopiesCanceled(t, owner, j.Hash)
			},
		},
		{
			name: "cancel of a forwarded job through the Go API stops the owner's copy",
			run: func(t *testing.T, cc *contractCluster) {
				b, j, owner := forwardedSlowJob(t, cc)
				if ok, err := b.s.Cancel(j.ID); err != nil || !ok {
					t.Fatalf("Cancel = %v, %v", ok, err)
				}
				waitCopiesCanceled(t, owner, j.Hash)
			},
		},
		{
			name:    "cancel of a stolen job on its owner stops the thief's copy",
			workers: oneWorkerOnA,
			run: func(t *testing.T, cc *contractCluster) {
				a, jq := queuedBehindWedge(t, cc, slowSpec, iter)
				var thief *clusterNode
				waitFor(t, 10*time.Second, "an idle peer runs the stolen job", func() bool {
					for nd, copies := range cc.copiesOf(t, jq.Hash, a) {
						for _, st := range copies {
							if st.State == StateRunning {
								thief = nd
								return true
							}
						}
					}
					return false
				})
				req, _ := http.NewRequest(http.MethodDelete, a.addr+"/v1/jobs/"+jq.ID, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if st := waitTerminal(t, jq, 5*time.Second); st.State != StateCanceled {
					t.Fatalf("owner's job = %s, want canceled", st.State)
				}
				waitCopiesCanceled(t, thief, jq.Hash)
			},
		},
		{
			name:    "cancel while a hand-off awaits the thief's reply reaches the thief",
			workers: oneWorkerOnA,
			run: func(t *testing.T, cc *contractCluster) {
				a := cc.nodes[0]
				cc.gate.armed.Store(true)
				_, jq := queuedBehindWedge(t, cc, slowSpec, iter)
				var thiefID string
				select {
				case thiefID = <-cc.gate.arrived:
				case <-time.After(10 * time.Second):
					t.Fatal("no hand-off forward reached an idle peer")
				}
				if jq.State() == StateQueued {
					t.Fatal("job still queued while its hand-off is in flight")
				}
				if ok, err := a.s.Cancel(jq.ID); err != nil || !ok {
					t.Fatalf("Cancel = %v, %v", ok, err)
				}
				cc.gate.open()
				if st := waitTerminal(t, jq, 5*time.Second); st.State != StateCanceled {
					t.Fatalf("owner's job = %s, want canceled", st.State)
				}
				waitCopiesCanceled(t, cc.node(t, thiefID), jq.Hash)
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			for iter = 0; iter < contractIterations; iter++ {
				ok := t.Run(fmt.Sprintf("iter%d", iter), func(t *testing.T) {
					cc := newContractCluster(t, sc) // setup; teardown is t.Cleanup
					sc.run(t, cc)                   // act and verify
				})
				if !ok {
					return
				}
			}
		})
	}
}
