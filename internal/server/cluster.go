package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"chameleon/internal/cluster"
)

// replication is how many ring nodes hold each result: the owner plus
// one replica, so any single node death keeps every cached result
// reachable.
const replication = 2

// peerCallTimeout bounds one peer HTTP round-trip (forwards, status
// polls, cache lookups, steal requests). A forward that cannot reach
// its target quickly falls back to running locally.
const peerCallTimeout = 5 * time.Second

// awaitPoll is the status-poll period for a job executing on a peer.
// It bounds how late a client sees the job end. On a 2-vCPU Xeon a
// poll costs about 0.13 ms of CPU (client and server together), so
// five a second cost about 0.06% of a core per remote job, next to the
// full core the job itself runs on. Backing off to 1 s would save
// little of that and would make a 2.5 s job end about 0.5 s late.
const awaitPoll = 200 * time.Millisecond

// errPeerDead reports that the node executing a job was declared dead
// (or no longer knows the job) before the job finished.
var errPeerDead = errors.New("executing node is gone")

// remoteError is a job that ended failed or canceled on the node that
// executed it.
type remoteError struct {
	State JobState
	Msg   string
}

func (e *remoteError) Error() string { return fmt.Sprintf("remote job %s: %s", e.State, e.Msg) }

// --- the one remote-execution primitive ------------------------------
//
// Every job that runs on another node — a submit forwarded to its ring
// owner, a queued job handed to an idle peer, a DSE cell sharded to its
// owner — is posted with forwardTo and waited on with awaitRemote.

// forwardTo posts a normalized spec to node's job API. The forwarded
// header makes node serve it locally (single hop). It returns node's
// job ID.
func (s *Server) forwardTo(node cluster.Node, spec JobSpec) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
	defer cancel()
	var st JobStatus
	err := cluster.DoJSONHeader(ctx, s.cl.HTTPClient(), http.MethodPost, node.Addr+"/v1/jobs",
		map[string]string{cluster.ForwardedHeader: s.selfID()}, spec, &st)
	if err != nil {
		s.peerFailed(node, err)
		return "", err
	}
	return st.ID, nil
}

// awaitRemote polls job rid on node until it ends. It
// mirrors progress into onProgress (if set) and returns the result
// bytes of a done job and whether node served it from cache. It fails
// with errPeerDead once the failure detector declares node dead, with
// a *remoteError if the job failed or was canceled there, and with
// ctx's error after telling node to cancel the job when ctx ends.
func (s *Server) awaitRemote(ctx context.Context, node cluster.Node, rid string, onProgress func(Progress)) ([]byte, bool, error) {
	url := node.Addr + "/v1/jobs/" + rid
	for {
		if ctx.Err() == nil && !s.cl.Alive(node.ID) {
			return nil, false, errPeerDead
		}
		var st JobStatus
		cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
		err := cluster.DoJSON(cctx, s.cl.HTTPClient(), http.MethodGet, url, nil, &st)
		cancel()
		var pe *cluster.PeerError
		switch {
		case ctx.Err() != nil:
			// The wait below sees it and cancels the copy on node.
		case errors.As(err, &pe) && pe.Status == http.StatusNotFound:
			// node restarted and lost the job: it will never finish there.
			return nil, false, errPeerDead
		case err != nil:
			s.peerFailed(node, err)
		case st.State == StateDone:
			cctx, cancel := context.WithTimeout(ctx, peerCallTimeout)
			b, ok, err := cluster.GetBytes(cctx, s.cl.HTTPClient(), url+"/result")
			cancel()
			if err == nil && ok {
				return b, st.Cached, nil
			}
		case st.State.Terminal():
			return nil, false, &remoteError{State: st.State, Msg: st.Error}
		case onProgress != nil:
			onProgress(st.Progress)
		}
		select {
		case <-ctx.Done():
			s.cancelRemote(node, rid)
			return nil, false, ctx.Err()
		case <-time.After(awaitPoll):
		}
	}
}

// cancelRemote best-effort cancels job rid on node, so an abandoned
// remote execution stops burning a worker there.
func (s *Server) cancelRemote(node cluster.Node, rid string) {
	ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
	defer cancel()
	_ = cluster.DoJSON(ctx, s.cl.HTTPClient(), http.MethodDelete, node.Addr+"/v1/jobs/"+rid, nil, nil)
}

// peerFailed reports a failed call to the failure detector. A peer
// that answered with an HTTP error is reachable, so only transport
// failures count.
func (s *Server) peerFailed(node cluster.Node, err error) {
	var pe *cluster.PeerError
	if !errors.As(err, &pe) {
		s.cl.Membership().MarkFailed(node.ID)
	}
}

// handOff runs a queued job on node: the queued → remote CAS (so the
// job runs exactly once), a forward, then one mirror goroutine that
// awaits the remote execution. It returns false, with j back in the
// queued state unless it was canceled meanwhile, if the CAS or the
// forward fails.
func (s *Server) handOff(j *Job, node cluster.Node) bool {
	ctx, stop := context.WithCancel(s.baseCtx)
	if !j.markRemote(node.ID, node.Addr, time.Now(), stop) {
		stop()
		return false
	}
	rid, err := s.forwardTo(node, j.Spec)
	if err != nil {
		stop()
		if j.revertToQueued() {
			j.setNode(s.selfID())
		}
		return false
	}
	j.setRemoteID(rid)
	// A cancel that landed during the forward has already ended ctx;
	// the mirror's first step then cancels the copy on node.
	s.mirrorMu.Lock()
	live := !s.mirrorsOff
	if live {
		s.mirrors.Add(1)
	}
	s.mirrorMu.Unlock()
	if !live {
		// Shutdown is already waiting: cancel the copy just made.
		stop()
		s.mirror(ctx, j, node, rid)
		return true
	}
	go func() {
		defer s.mirrors.Done()
		defer stop()
		s.mirror(ctx, j, node, rid)
	}()
	return true
}

// mirror drives a remote job to its end: it mirrors the executing
// node's progress and outcome, and returns the job to the local pool
// if that node dies.
func (s *Server) mirror(ctx context.Context, j *Job, node cluster.Node, rid string) {
	b, cached, err := s.awaitRemote(ctx, node, rid, j.setProgress)
	now := time.Now()
	var re *remoteError
	switch {
	case err == nil:
		s.cache.Put(j.Hash, b)
		j.finishFromPeer(StateDone, b, "", cached, now)
	case errors.Is(err, errPeerDead):
		s.reenqueueLocal(j)
	case errors.As(err, &re):
		j.finishFromPeer(re.State, nil, re.Msg, false, now)
	default:
		// Canceled locally (Cancel already ended the job) or cut by
		// Shutdown after its grace period.
		j.finish(StateCanceled, nil, err, now)
	}
}

// reenqueueLocal returns a remote job whose executing node died to the
// local worker pool. A stolen job whose first pool entry still waits
// is started by that entry.
func (s *Server) reenqueueLocal(j *Job) {
	if !j.revertToQueued() {
		return
	}
	j.setNode(s.selfID())
	if s.enqueue(j) == nil {
		s.metrics.JobsReenqueued.Add(1)
	}
}

// --- cluster-wide result cache ----------------------------------------

// peerCacheGet consults the ring owner and replica (excluding self)
// for hash before simulating locally.
func (s *Server) peerCacheGet(hash string, owners []cluster.Node) ([]byte, bool) {
	self := s.selfID()
	for _, o := range owners {
		if o.ID == self || !s.cl.Alive(o.ID) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
		b, ok, err := cluster.GetBytes(ctx, s.cl.HTTPClient(), o.Addr+cluster.CachePath+hash)
		cancel()
		if err != nil {
			s.peerFailed(o, err)
			continue
		}
		if ok {
			return b, true
		}
	}
	return nil, false
}

// writeBackResult pushes freshly computed result bytes to the ring
// owner and replica (excluding self). Best effort: the result is
// already served locally; replication only widens the cache.
func (s *Server) writeBackResult(hash string, b []byte) {
	self := s.selfID()
	for _, o := range s.cl.Owners(hash, replication) {
		if o.ID == self || !s.cl.Alive(o.ID) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
		err := cluster.PutBytes(ctx, s.cl.HTTPClient(), o.Addr+cluster.CachePath+hash, b)
		cancel()
		if err != nil {
			s.peerFailed(o, err)
		}
	}
}

// --- work stealing: a hand-off to an idle node ----------------------

// stealRequest asks a loaded node to hand up to Max queued jobs to the
// idle node By. The loaded node reaches By at the address its own
// membership view holds.
type stealRequest struct {
	By  string `json:"by"`
	Max int    `json:"max"`
}

// stealResponse reports how many jobs the loaded node handed off.
type stealResponse struct {
	Handed int `json:"handed"`
}

// idleCapacity returns how many more jobs this node could run right
// now without queueing.
func (s *Server) idleCapacity() int {
	free := int64(s.opts.Workers) - s.metrics.JobsRunning.Value() - s.metrics.JobsQueued.Value()
	if free < 0 {
		return 0
	}
	return int(free)
}

// stealOnce asks each live peer, while this node is idle, to hand it
// queued work. The peer forwards each job here as an ordinary
// forwarded submit and mirrors it, so a stolen job is owned and
// tracked by the node it was submitted to.
func (s *Server) stealOnce() {
	if s.cl == nil || s.draining.Load() {
		return
	}
	budget := s.idleCapacity()
	self := s.cl.Self()
	for _, peer := range s.cl.Members() {
		if budget <= 0 {
			return
		}
		if peer.ID == self.ID || !s.cl.Alive(peer.ID) {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), peerCallTimeout)
		var resp stealResponse
		err := cluster.DoJSON(ctx, s.cl.HTTPClient(), http.MethodPost, peer.Addr+cluster.StealPath,
			stealRequest{By: self.ID, Max: budget}, &resp)
		cancel()
		if err != nil {
			s.peerFailed(peer, err)
			continue
		}
		s.metrics.JobsStolen.Add(int64(resp.Handed))
		budget -= resp.Handed
	}
}

// startClusterLoops runs the work-stealing loop until Shutdown.
func (s *Server) startClusterLoops() {
	s.loopWG.Add(1)
	go func() {
		defer s.loopWG.Done()
		t := time.NewTicker(s.opts.StealInterval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.stealOnce()
			}
		}
	}()
}

// clusterInfo renders the live cluster summary for /debug/vars.
func (s *Server) clusterInfo() any {
	self := s.cl.Self()
	members := s.cl.Members()
	alive := 0
	states := make(map[string]string, len(members))
	for _, m := range members {
		states[m.ID] = string(m.State)
		if m.State == cluster.StateAlive {
			alive++
		}
	}
	return map[string]any{
		"node_id":       self.ID,
		"addr":          self.Addr,
		"incarnation":   self.Incarnation,
		"members_total": len(members),
		"members_alive": alive,
		"members":       states,
		"ring_nodes":    s.cl.Ring().Nodes(),
	}
}

// --- peer-protocol HTTP handlers --------------------------------------

// registerClusterRoutes adds the peer protocol to the API mux.
func (s *Server) registerClusterRoutes(mux *http.ServeMux) {
	mux.HandleFunc("POST "+cluster.GossipPath, s.handleGossip)
	mux.HandleFunc("GET "+cluster.MembersPath, s.handleMembers)
	mux.HandleFunc("GET "+cluster.CachePath+"{hash}", s.handleCacheGet)
	mux.HandleFunc("PUT "+cluster.CachePath+"{hash}", s.handleCachePut)
	mux.HandleFunc("POST "+cluster.StealPath, s.handleSteal)
}

func (s *Server) handleGossip(w http.ResponseWriter, r *http.Request) {
	var d cluster.Digest
	if err := cluster.ReadJSON(w, r, &d, 1<<20); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	cluster.WriteJSON(w, http.StatusOK, s.cl.HandleGossip(d))
}

func (s *Server) handleMembers(w http.ResponseWriter, _ *http.Request) {
	cluster.WriteJSON(w, http.StatusOK, struct {
		Self    cluster.Node   `json:"self"`
		Members []cluster.Node `json:"members"`
		Ring    []string       `json:"ring"`
	}{s.cl.Self(), s.cl.Members(), s.cl.Ring().Nodes()})
}

func (s *Server) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	b, ok := s.cache.Get(r.PathValue("hash"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("not cached"))
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server) handleCachePut(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	body, err := readAllLimited(w, r, 64<<20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.cache.Put(hash, body)
	s.metrics.PeerCacheFills.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// handleSteal hands queued jobs to the idle node that asked: at most
// req.Max, and no more than wait here beyond the local workers. It
// hands off from the back of the queue, since free local workers take
// the front next. Only a node this one considers alive gets work: a
// mirror gives up on a node it does not know. Trace replays read a
// node-local file, so they never move; a job whose submit is still
// routing it has no pool entry yet and is not eligible either.
func (s *Server) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	if err := cluster.ReadJSON(w, r, &req, 1<<20); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	handed := 0
	thief, known := s.cl.Membership().Lookup(req.By)
	if !s.draining.Load() && known && req.By != s.selfID() && s.cl.Alive(req.By) {
		var queued []*Job
		running := 0
		for _, j := range s.store.Unfinished() {
			switch state, pooled := j.poolState(); {
			case state == StateRunning:
				running++
			case state == StateQueued && pooled:
				queued = append(queued, j)
			}
		}
		limit := min(req.Max, len(queued)+running-s.opts.Workers)
		for i := len(queued) - 1; i >= 0 && handed < limit; i-- {
			j := queued[i]
			if j.Spec.TracePath != "" {
				continue
			}
			if !s.handOff(j, thief) {
				if j.State() == StateQueued {
					// The forward failed after the CAS. The job's pool
					// entry still starts it, unless a worker skipped the
					// entry meanwhile; then it needs a new one.
					_ = s.enqueue(j)
					break
				}
				continue // a worker or a canceling client won the CAS
			}
			handed++
			s.metrics.JobsStolenAway.Add(1)
		}
	}
	cluster.WriteJSON(w, http.StatusOK, stealResponse{Handed: handed})
}

// readAllLimited reads a bounded request body.
func readAllLimited(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	defer r.Body.Close()
	return io.ReadAll(http.MaxBytesReader(w, r.Body, max))
}
