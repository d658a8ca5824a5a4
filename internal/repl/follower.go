package repl

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"rdfsum/client"
	"rdfsum/internal/core"
	"rdfsum/internal/httpapi"
	"rdfsum/internal/live"
	"rdfsum/internal/obs"
	"rdfsum/internal/store"
)

// Follower states, as reported by Status.
const (
	StateConnecting    = "connecting"    // no successful bootstrap yet
	StateBootstrapping = "bootstrapping" // fetching manifest + snapshot
	StateTailing       = "tailing"       // applying WAL records
	StateRetrying      = "retrying"      // backing off after an error
)

// FollowerOptions configures a read replica.
type FollowerOptions struct {
	// Maintain selects the incrementally maintained summary kinds of the
	// replica's live store (nil = weak only), exactly as on a leader.
	Maintain []core.Kind
	// PollWait is the long-poll duration of caught-up WAL requests
	// (default 10s).
	PollWait time.Duration
	// RetryMin/RetryMax bound the exponential backoff after transient
	// errors (defaults 200ms and 5s).
	RetryMin time.Duration
	RetryMax time.Duration
	// Logger receives replication progress and failures (nil =
	// slog.Default()). Each bootstrap→tail session carries one request
	// ID, sent to the leader on every request of the session, so leader
	// and follower logs correlate.
	Logger *slog.Logger
}

func (o *FollowerOptions) fill() {
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	if o.PollWait <= 0 {
		o.PollWait = 10 * time.Second
	}
	if o.RetryMin <= 0 {
		o.RetryMin = 200 * time.Millisecond
	}
	if o.RetryMax < o.RetryMin {
		o.RetryMax = 5 * time.Second
		if o.RetryMax < o.RetryMin {
			o.RetryMax = o.RetryMin
		}
	}
}

// FollowerStatus is a point-in-time view of a replica's progress, the
// body of GET /v1/replication on a follower.
type FollowerStatus struct {
	Leader string `json:"leader"`
	State  string `json:"state"`

	// Progress through the leader's current generation.
	Generation     uint64 `json:"generation"`
	AppliedOffset  int64  `json:"applied_offset"`
	AppliedRecords int64  `json:"applied_records"`

	// Leader state at the last WAL response, and the derived lag. Epochs
	// count publications, so lag_epochs approximates "how many batches
	// behind"; it is exact (0) whenever the follower has drained a
	// response fully.
	LeaderEpoch      uint64 `json:"leader_epoch"`
	LeaderWALBytes   int64  `json:"leader_wal_bytes"`
	LeaderWALRecords int64  `json:"leader_wal_records"`
	LagBytes         int64  `json:"lag_bytes"`
	LagRecords       int64  `json:"lag_records"`
	LagEpochs        uint64 `json:"lag_epochs"`

	// Epoch is the replica's own publication counter (resets at each
	// bootstrap; compare lag fields, not epochs, across instances).
	Epoch      uint64 `json:"epoch"`
	Bootstraps uint64 `json:"bootstraps"`
	LastError  string `json:"last_error,omitempty"`

	appliedLeaderEpoch uint64 // leader epoch as of the last fully drained response
}

// Follower is a read replica: it bootstraps a memory-only live store from
// the leader's snapshot, tails the WAL, and re-bootstraps whenever the
// leader compacts away the generation it was following. The current live
// store is swapped atomically at each bootstrap; readers obtain it from
// Live.
type Follower struct {
	cl   *client.Client
	opts FollowerOptions

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu sync.Mutex
	lv *live.Live
	st FollowerStatus
}

// NewFollower prepares a replica of the rdfsumd leader at leaderURL. The
// replica serves immediately (an empty store) in state "connecting";
// Start launches the replication loop.
func NewFollower(leaderURL string, opts FollowerOptions) (*Follower, error) {
	cl, err := client.New(leaderURL)
	if err != nil {
		return nil, err
	}
	opts.fill()
	ctx, cancel := context.WithCancel(context.Background())
	return &Follower{
		cl:     cl,
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		lv:     live.New(nil, nil, &live.Options{Maintain: opts.Maintain}),
		st:     FollowerStatus{Leader: cl.BaseURL(), State: StateConnecting},
	}, nil
}

// Start launches the replication loop. Call once.
func (f *Follower) Start() { go f.run() }

// Close stops replication and closes the replica's live store.
func (f *Follower) Close() error {
	f.cancel()
	<-f.done
	f.mu.Lock()
	lv := f.lv
	f.mu.Unlock()
	return lv.Close()
}

// Live returns the replica's current live store. Each bootstrap swaps in
// a new one whose epochs restart at 1, so a caller pins the store once
// per request and reads every epoch and every derived artifact (summary,
// pruning gate, G∞, planner weights) from that store alone: each store
// caches its own, and an epoch comparison across stores is meaningless.
func (f *Follower) Live() *live.Live {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lv
}

// Status reports replication progress with derived lag gauges.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	st := f.st
	lv := f.lv
	f.mu.Unlock()
	st.Epoch = lv.Epoch()
	if st.LagBytes = st.LeaderWALBytes - st.AppliedOffset; st.LagBytes < 0 {
		st.LagBytes = 0
	}
	if st.LagRecords = st.LeaderWALRecords - st.AppliedRecords; st.LagRecords < 0 {
		st.LagRecords = 0
	}
	if st.LeaderEpoch > st.appliedLeaderEpoch {
		st.LagEpochs = st.LeaderEpoch - st.appliedLeaderEpoch
	}
	return st
}

// run is the replication loop: bootstrap, then tail one WAL request at a
// time, re-bootstrapping on "gone" and backing off on transient errors.
func (f *Follower) run() {
	defer close(f.done)
	needBootstrap := true
	backoff := f.opts.RetryMin
	var (
		gen    uint64
		offset int64
	)
	// One request ID per bootstrap→tail session: every leader request of
	// the session carries it, so one grep correlates both processes.
	ctx := obs.WithRequestID(f.ctx, obs.NewRequestID())
	for f.ctx.Err() == nil {
		if needBootstrap {
			ctx = obs.WithRequestID(f.ctx, obs.NewRequestID())
			m, err := f.bootstrap(ctx)
			if err != nil {
				if f.ctx.Err() != nil {
					return
				}
				f.fail(ctx, err, StateRetrying)
				f.sleep(&backoff)
				continue
			}
			gen, offset = m.Generation, m.WALDataStart
			needBootstrap = false
			backoff = f.opts.RetryMin
			f.setState(StateTailing)
			f.opts.Logger.LogAttrs(ctx, slog.LevelInfo, "replication tailing",
				slog.Uint64("generation", gen), slog.Int64("offset", offset))
		}
		progressed, err := f.tailOnce(ctx, gen, &offset)
		switch {
		case f.ctx.Err() != nil:
			return
		case err == nil:
			if progressed {
				backoff = f.opts.RetryMin
				f.setState(StateTailing)
			}
		case client.IsCode(err, httpapi.CodeGone):
			// The generation we were tailing was compacted away:
			// re-bootstrap immediately from the leader's new snapshot.
			f.opts.Logger.LogAttrs(ctx, slog.LevelInfo, "replication generation gone; re-bootstrapping",
				slog.Uint64("generation", gen))
			needBootstrap = true
		default:
			f.fail(ctx, err, StateRetrying)
			f.sleep(&backoff)
		}
	}
}

// bootstrap fetches the manifest and snapshot and swaps in a fresh live
// store replaying that base. Returns the manifest the new store is based
// on; tailing starts at its wal_data_start. A manifest whose WAL framing
// is not the one this build decodes fails the bootstrap with
// live.ErrWALVersion before anything is fetched.
func (f *Follower) bootstrap(ctx context.Context) (*client.ReplManifest, error) {
	f.setState(StateBootstrapping)
	t0 := time.Now()
	m, err := f.cl.ReplManifest(ctx)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if m.WALVersion != live.WALVersion || m.WALDataStart != live.WALDataStart {
		return nil, fmt.Errorf("manifest: %w: wal_version %d, wal_data_start %d (this build reads only version %d, records from offset %d)",
			live.ErrWALVersion, m.WALVersion, m.WALDataStart, live.WALVersion, live.WALDataStart)
	}
	// The snapshot's bytes are served in place, as a reopened leader
	// serves its file: the dictionary over their pages, the index over
	// their column run.
	var (
		g  *store.Graph
		sf *store.SnapshotFile
	)
	if m.HasSnapshot {
		rc, err := f.cl.ReplSnapshot(ctx, m.Generation)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		g, sf, err = store.ReadGraph(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("snapshot gen %d: %w", m.Generation, err)
		}
	}
	lv := live.New(g, sf, &live.Options{Maintain: f.opts.Maintain})

	f.mu.Lock()
	old := f.lv
	f.lv = lv
	f.st.Generation = m.Generation
	f.st.AppliedOffset = live.WALDataStart
	f.st.AppliedRecords = 0
	f.st.LeaderEpoch = m.Epoch
	f.st.LeaderWALBytes = m.WALSize
	f.st.LeaderWALRecords = m.WALRecords
	f.st.appliedLeaderEpoch = 0
	f.st.Bootstraps++
	f.st.LastError = ""
	f.mu.Unlock()
	old.Close() //nolint:errcheck // memory-only: Close never fails

	f.opts.Logger.LogAttrs(ctx, slog.LevelInfo, "replication bootstrap complete",
		slog.Uint64("generation", m.Generation),
		slog.Uint64("leader_epoch", m.Epoch),
		slog.Int64("wal_size", m.WALSize),
		slog.Duration("duration", time.Since(t0)),
	)
	return m, nil
}

// tailOnce issues one WAL request at *offset and applies every complete
// record it returns, advancing *offset past each. A response cut mid-
// record is not an error if any records landed first — the next request
// resumes from the last applied boundary. Reports whether it made
// progress (applied records, or confirmed being caught up).
func (f *Follower) tailOnce(ctx context.Context, gen uint64, offset *int64) (progressed bool, err error) {
	rc, info, err := f.cl.ReplWAL(ctx, gen, *offset, f.opts.PollWait)
	if err != nil {
		return false, err
	}
	f.noteLeader(info)
	if rc == nil { // 204: caught up within the wait
		f.noteDrained(info)
		return true, nil
	}
	defer rc.Close()
	rr := live.NewWALRecordReader(rc)
	applied := int64(0)
	for {
		op, triples, n, rerr := rr.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			if applied > 0 {
				return true, nil // partial stream; resume from *offset
			}
			return false, fmt.Errorf("wal stream at offset %d: %w", *offset, rerr)
		}
		lv := f.Live()
		tApply := time.Now()
		switch op {
		case live.OpAdd:
			err = lv.AddBatch(triples)
		case live.OpDelete:
			_, err = lv.DeleteBatch(triples)
		default:
			err = fmt.Errorf("unknown wal op %d", op)
		}
		if err != nil {
			return applied > 0, fmt.Errorf("apply record at offset %d: %w", *offset, err)
		}
		replApplySeconds.ObserveSince(tApply)
		*offset += n
		applied++
		f.noteApplied(*offset, applied == 1)
	}
	if applied > 0 {
		f.opts.Logger.LogAttrs(ctx, slog.LevelDebug, "replication applied",
			slog.Int64("records", applied),
			slog.Int64("offset", *offset),
			slog.Int64("lag_bytes", max(info.WALSize-*offset, 0)),
		)
	}
	if *offset >= info.WALSize {
		f.noteDrained(info)
	}
	return applied > 0, nil
}

// noteLeader records the leader state captured in a WAL response.
func (f *Follower) noteLeader(info *client.ReplWALInfo) {
	f.mu.Lock()
	f.st.LeaderEpoch = info.Epoch
	f.st.LeaderWALBytes = info.WALSize
	f.st.LeaderWALRecords = info.WALRecords
	f.mu.Unlock()
}

// noteApplied advances the replica's applied position by one record.
func (f *Follower) noteApplied(offset int64, first bool) {
	f.mu.Lock()
	f.st.AppliedOffset = offset
	f.st.AppliedRecords++
	if first {
		f.st.LastError = ""
	}
	f.mu.Unlock()
}

// noteDrained marks the follower caught up with the response's leader
// state: lag_epochs reads 0 until the leader publishes again.
func (f *Follower) noteDrained(info *client.ReplWALInfo) {
	f.mu.Lock()
	f.st.appliedLeaderEpoch = info.Epoch
	f.st.LastError = ""
	f.mu.Unlock()
}

func (f *Follower) setState(state string) {
	f.mu.Lock()
	f.st.State = state
	f.mu.Unlock()
}

func (f *Follower) fail(ctx context.Context, err error, state string) {
	f.opts.Logger.LogAttrs(ctx, slog.LevelWarn, "replication error",
		slog.String("error", err.Error()))
	f.mu.Lock()
	f.st.State = state
	f.st.LastError = err.Error()
	f.mu.Unlock()
}

// sleep blocks for the current backoff (interruptible by Close) and
// doubles it up to RetryMax.
func (f *Follower) sleep(backoff *time.Duration) {
	timer := time.NewTimer(*backoff)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-f.ctx.Done():
	}
	if *backoff *= 2; *backoff > f.opts.RetryMax {
		*backoff = f.opts.RetryMax
	}
}
