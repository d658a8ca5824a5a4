package main

import (
	"context"
	"time"
)

// clock is the time source of the open-loop scheduler; tests substitute
// a simulated one.
type clock struct {
	now        func() time.Time
	sleepUntil func(ctx context.Context, t time.Time)
}

var wallClock = clock{
	now: time.Now,
	sleepUntil: func(ctx context.Context, t time.Time) {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		tm := time.NewTimer(d)
		defer tm.Stop()
		select {
		case <-tm.C:
		case <-ctx.Done():
		}
	},
}

// openLoopSample is one scheduled operation. Latency runs from the due
// time, not the send time, so a stall is charged to every operation it
// delays; lateness (send minus due) says how far behind its schedule
// the generator itself ran.
type openLoopSample struct {
	lateness time.Duration
	latency  time.Duration
	doneAt   time.Duration // completion, relative to the schedule's start
}

// runOpenLoop issues op(i) over one connection on a schedule fixed
// beforehand: operation i is due at start+due[i] however long earlier
// ones took. While one is outstanding the generator waits, and the wait
// shows up as the next one's lateness. It stops early when ctx ends.
func runOpenLoop(ctx context.Context, ck clock, dueAt []time.Duration, op func(i int)) []openLoopSample {
	start := ck.now()
	out := make([]openLoopSample, 0, len(dueAt))
	for i := 0; i < len(dueAt) && ctx.Err() == nil; i++ {
		due := start.Add(dueAt[i])
		ck.sleepUntil(ctx, due)
		lateness := ck.now().Sub(due)
		op(i)
		done := ck.now()
		out = append(out, openLoopSample{lateness: lateness, latency: done.Sub(due), doneAt: done.Sub(start)})
	}
	return out
}
