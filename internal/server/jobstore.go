package server

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"chameleon/internal/sim"
)

// JobState is the lifecycle state of a job.
type JobState string

// Job lifecycle states. Queued jobs wait for a worker; running jobs
// own one; done/failed/canceled are terminal. Remote exists only on
// clustered servers: the job executes on a peer (its ring owner, or
// an idle node it was handed off to) and mirrors that copy here.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateRemote   JobState = "remote"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Progress is the live view of a running job, fed by timeline epochs
// (sim jobs) or completed cells (matrix jobs).
type Progress struct {
	// Sim jobs: the latest timeline sample.
	Epochs            int     `json:"epochs,omitempty"`
	Cycle             uint64  `json:"cycle,omitempty"`
	StackedHitRate    float64 `json:"stacked_hit_rate,omitempty"`
	CacheModeFraction float64 `json:"cache_mode_fraction,omitempty"`
	// Matrix and DSE jobs: completed cells out of the total.
	DoneCells  int `json:"done_cells,omitempty"`
	TotalCells int `json:"total_cells,omitempty"`
	// DSE jobs only: cells served from the content-addressed cache and
	// cells skipped by dominance pruning (both subsets of the total;
	// cached cells also count as done).
	CachedCells int `json:"cached_cells,omitempty"`
	PrunedCells int `json:"pruned_cells,omitempty"`
}

// JobStatus is the wire-format snapshot of a job. Node names the
// cluster node executing (or that executed) the job; for remote
// mirrors, NodeAddr and RemoteID let a cluster-aware client poll the
// executing node directly instead of through the forwarding proxy.
type JobStatus struct {
	ID          string     `json:"id"`
	Hash        string     `json:"hash"`
	State       JobState   `json:"state"`
	Cached      bool       `json:"cached,omitempty"`
	Node        string     `json:"node,omitempty"`
	NodeAddr    string     `json:"node_addr,omitempty"`
	RemoteID    string     `json:"remote_id,omitempty"`
	Spec        JobSpec    `json:"spec"`
	Progress    Progress   `json:"progress,omitempty"`
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

// Job is one unit of work owned by the server. All mutable fields are
// guarded by mu; Done is closed exactly once when the job reaches a
// terminal state.
type Job struct {
	ID   string
	Hash string
	Spec JobSpec // normalized

	mu          sync.Mutex
	state       JobState
	cached      bool
	progress    Progress
	result      []byte // JSON, set in StateDone
	err         string
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time
	// cancel stops whatever executes the job: the run context of a
	// running job, the await loop of a remote one.
	cancel context.CancelFunc

	// Cluster bookkeeping. node labels the executing node; for remote
	// mirrors nodeAddr/remoteID reference the executing node's job.
	node     string
	nodeAddr string
	remoteID string

	// pooled is set while an entry for the job waits in the worker
	// pool (set by claimPoolEntry, cleared by tryStart or dequeued). A
	// job handed to a peer leaves its entry behind; if the job comes
	// back before a worker takes that entry, the entry starts it.
	pooled bool

	// onEnd, if set, runs once when the job reaches a terminal state,
	// with the state it left, before Done waiters wake.
	onEnd func(from, to JobState)

	done chan struct{}
}

func newJob(id string, spec JobSpec, now time.Time) *Job {
	return &Job{
		ID: id, Hash: spec.Hash(), Spec: spec,
		state: StateQueued, submittedAt: now,
		done: make(chan struct{}),
	}
}

// Status snapshots the job for the API.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID: j.ID, Hash: j.Hash, State: j.state, Cached: j.cached,
		Node: j.node, NodeAddr: j.nodeAddr, RemoteID: j.remoteID,
		Spec: j.Spec, Progress: j.progress, Error: j.err,
		SubmittedAt: j.submittedAt,
	}
	if !j.startedAt.IsZero() {
		t := j.startedAt
		st.StartedAt = &t
	}
	if !j.finishedAt.IsZero() {
		t := j.finishedAt
		st.FinishedAt = &t
	}
	return st
}

// Result returns the job's result JSON, or an error describing why it
// is not available.
func (j *Job) Result() ([]byte, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateDone:
		return j.result, nil
	case StateFailed:
		return nil, fmt.Errorf("job %s failed: %s", j.ID, j.err)
	case StateCanceled:
		return nil, fmt.Errorf("job %s was canceled", j.ID)
	default:
		return nil, fmt.Errorf("job %s is %s; result not ready", j.ID, j.state)
	}
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// claimPoolEntry reports whether a queued job needs a worker-pool
// entry (it has none waiting) and records that it is getting one.
func (j *Job) claimPoolEntry() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued || j.pooled {
		return false
	}
	j.pooled = true
	return true
}

// dequeued records that a worker took the job's pool entry without
// starting it and returns the job's state.
func (j *Job) dequeued() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pooled = false
	return j.state
}

// poolState returns the job's state and whether a pool entry for it
// waits.
func (j *Job) poolState() (JobState, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.pooled
}

// tryStart takes the job's pool entry and transitions queued →
// running; it fails if the job was canceled or handed to a peer while
// waiting in the queue. The cancel func tears down the job's run
// context.
func (j *Job) tryStart(now time.Time, cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.pooled = false
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.startedAt = now
	j.cancel = cancel
	return true
}

// endLocked moves a non-terminal job to a terminal state and wakes
// Done waiters. Every terminal transition goes through it, so onEnd
// counts each job exactly once, and a waiter that sees the job end
// sees it counted. The caller holds j.mu.
func (j *Job) endLocked(state JobState, now time.Time) {
	from := j.state
	j.state = state
	j.finishedAt = now
	j.cancel = nil
	if j.onEnd != nil {
		j.onEnd(from, state)
	}
	close(j.done)
}

// finish moves the job to a terminal state. It is a no-op if the job
// is already terminal (e.g. canceled racing completion).
func (j *Job) finish(state JobState, result []byte, err error, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.result = result
	if err != nil {
		j.err = err.Error()
	}
	j.endLocked(state, now)
	return true
}

// Cancel cancels a queued, remote or running job. Queued and remote
// jobs go terminal immediately (a remote job's await loop then tells
// the executing node); running jobs get their context canceled and go
// terminal when the simulation loop notices. It reports whether the
// call had any effect.
func (j *Job) Cancel(now time.Time) bool {
	j.mu.Lock()
	stop := j.cancel
	switch {
	case j.state == StateQueued || j.state == StateRemote:
		j.err = "canceled while " + string(j.state)
		j.endLocked(StateCanceled, now)
	case j.state == StateRunning && stop != nil:
		j.cancel = nil
	default:
		j.mu.Unlock()
		return false
	}
	j.mu.Unlock()
	if stop != nil {
		stop()
	}
	return true
}

// setSimProgress records a timeline sample.
func (j *Job) setSimProgress(p sim.TimelinePoint) {
	j.mu.Lock()
	j.progress.Epochs++
	j.progress.Cycle = p.Cycle
	j.progress.StackedHitRate = p.StackedHitRate
	j.progress.CacheModeFraction = p.CacheModeFraction
	j.mu.Unlock()
}

// resetProgress clears the job's progress snapshot, e.g. before the
// server reruns a collided parallel simulation sequentially.
func (j *Job) resetProgress() {
	j.mu.Lock()
	j.progress = Progress{}
	j.mu.Unlock()
}

// setMatrixProgress records completed matrix cells.
func (j *Job) setMatrixProgress(done, total int) {
	j.mu.Lock()
	j.progress.DoneCells = done
	j.progress.TotalCells = total
	j.mu.Unlock()
}

// setDSEProgress records a sweep's live cell accounting.
func (j *Job) setDSEProgress(done, cached, pruned, total int) {
	j.mu.Lock()
	j.progress.DoneCells = done
	j.progress.CachedCells = cached
	j.progress.PrunedCells = pruned
	j.progress.TotalCells = total
	j.mu.Unlock()
}

// markCached fills a freshly submitted job from a cache hit. It is a
// no-op unless the job is still queued: a client may cancel a job
// while its submit is still routing it.
func (j *Job) markCached(result []byte, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return
	}
	j.cached = true
	j.result = result
	j.endLocked(StateDone, now)
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setNode labels the job with the executing cluster node.
func (j *Job) setNode(id string) {
	if id == "" {
		return
	}
	j.mu.Lock()
	j.node = id
	j.mu.Unlock()
}

// markRemote is the CAS that makes every hand-off exactly-once: it
// moves a queued job to remote, executing on the named node, and
// fails for any other state. The local worker (tryStart), a second
// hand-off and a canceling client race on the same mutex, so exactly
// one party ever runs the job. stop ends the job's await loop.
func (j *Job) markRemote(nodeID, addr string, now time.Time, stop context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRemote
	j.node, j.nodeAddr = nodeID, addr
	j.startedAt = now
	j.cancel = stop
	return true
}

// setRemoteID records the executing node's job ID once the forward
// that created it replies.
func (j *Job) setRemoteID(rid string) {
	j.mu.Lock()
	j.remoteID = rid
	j.mu.Unlock()
}

// revertToQueued returns a remote job to the local queue after the
// node executing it died or could not take it. The caller must then
// enqueue it, which adds a pool entry only if the old one was taken.
func (j *Job) revertToQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRemote {
		return false
	}
	j.state = StateQueued
	j.node, j.nodeAddr, j.remoteID = "", "", ""
	j.startedAt = time.Time{}
	j.progress = Progress{}
	j.cancel = nil
	return true
}

// finishFromPeer moves a remote job to a terminal state on behalf of
// the node that executed it. No-op if already terminal.
func (j *Job) finishFromPeer(state JobState, result []byte, errstr string, cached bool, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.result = result
	j.err = errstr
	j.cached = cached
	j.endLocked(state, now)
	return true
}

// setProgress overwrites the progress snapshot (remote mirrors).
func (j *Job) setProgress(p Progress) {
	j.mu.Lock()
	j.progress = p
	j.mu.Unlock()
}

// Store is the in-memory job registry.
type Store struct {
	mu     sync.Mutex
	prefix string // cluster: node-scoped ID prefix, "" standalone
	jobs   map[string]*Job
	ids    []string // submission order, for listing
	seq    atomic.Uint64
	// live indexes ids: every job before it has reached a terminal
	// state. It only moves forward (see Unfinished).
	live int

	// onEnd is handed to every new job (see Job.onEnd).
	onEnd func(from, to JobState)
}

// NewStore returns an empty registry.
func NewStore() *Store {
	return &Store{jobs: make(map[string]*Job)}
}

// SetIDPrefix namespaces job IDs (e.g. "node1-"). Every store counts
// from 1, so clustered nodes must prefix or IDs collide across the
// cluster. Call before the first NewJob.
func (s *Store) SetIDPrefix(p string) {
	s.mu.Lock()
	s.prefix = p
	s.mu.Unlock()
}

// NewJob registers a new queued job for the spec.
func (s *Store) NewJob(spec JobSpec, now time.Time) *Job {
	s.mu.Lock()
	id := fmt.Sprintf("%sj%08x", s.prefix, s.seq.Add(1))
	j := newJob(id, spec, now)
	j.onEnd = s.onEnd
	s.jobs[id] = j
	s.ids = append(s.ids, id)
	s.mu.Unlock()
	return j
}

// Unfinished returns, in submission order, every job from the oldest
// one not yet in a terminal state onward (later jobs may have ended
// too). Terminal states are final, so the store keeps a cursor past the
// ended prefix of its history that only moves forward: a walk costs the
// tail from the oldest unfinished job, not the whole history of
// finished and cached jobs. Job locks are taken outside the store's.
func (s *Store) Unfinished() []*Job {
	s.mu.Lock()
	from := s.live
	tail := make([]*Job, 0, len(s.ids)-from)
	for _, id := range s.ids[from:] {
		tail = append(tail, s.jobs[id])
	}
	s.mu.Unlock()
	ended := 0
	for ended < len(tail) && tail[ended].State().Terminal() {
		ended++
	}
	s.mu.Lock()
	s.live = max(s.live, from+ended)
	s.mu.Unlock()
	return tail[ended:]
}

// Get looks a job up by ID.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List snapshots every job's status in submission order.
func (s *Store) List() []JobStatus {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.ids))
	for _, id := range s.ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	return out
}

// marshalResult encodes a result payload deterministically.
func marshalResult(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("server: encode result: %w", err)
	}
	return b, nil
}
