// Package queue is the asynchronous submission/completion engine: per-shard
// submission queues of configurable depth in front of the sharded FTL engine,
// io_uring-style. A host goroutine submits an operation and receives a Ticket
// (a future) instead of parking until the op's die frees up; one worker
// goroutine per shard executes submissions in FIFO order and completes the
// tickets. Decoupling submission from execution is what lets a single caller
// keep Channels × DiesPerChannel dies busy: each shard's virtual timeline
// advances independently, so measured throughput is bounded by the topology,
// not by caller concurrency.
//
// A submission costs a 64th of a heap object: Submit carves its Ticket from
// the shard's current slab of 64 with an atomic index and swaps in a fresh
// slab by CAS when that one is used up. The Ticket carries the submission's
// ctx and Request onto the shard's channel, the worker writes the outcome into
// it, lets go of the ctx and publishes a completed flag, and the submitter
// polls (Err) or blocks (Wait) on that same object; holding it keeps its slab
// alive. Wait under a ctx that cannot be cancelled — nil or one whose Done
// channel is nil, such as context.Background — blocks on a
// WaitGroup embedded in the ticket; only a cancellable ctx, or a caller of
// Done, needs a channel, and the ticket makes it then, once, under its own
// lock. Every accepted submission ends in exactly one of Stats' Completed,
// Shed and Cancelled; InFlight is what is left.
//
// Admission control keeps overload from collapsing tail latency. Every
// operation carries a virtual arrival instant; the queue's budget is
// Depth × Quantum of backlog (depth expressed in service slots). An operation
// arriving when its shard is further behind than the budget is either shed
// with ErrFull (AdmitShed — the op is dropped and counted, completed work
// keeps a bounded p99.9) or admitted as delayed (AdmitWait — never dropped,
// the wait is accounted from the instant the queue had room and counted).
// Admission decisions are made by the shard worker against the shard's own
// virtual clock, in submission order, so for a single submitting goroutine
// the shed/delay pattern is deterministic regardless of host scheduling.
//
// The queue is glued to the layers below through Config's hooks (ShardOf,
// Exec, Clock, Advance) rather than importing them, so it can front any
// sharded executor with a virtual clock.
package queue
