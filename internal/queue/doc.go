// Package queue is the submission/completion engine: per-shard admission
// control of configurable depth in front of the sharded FTL engine. A host
// goroutine submits an operation and receives a Ticket carrying its outcome.
// Submit admits and executes the operation on the calling goroutine, under
// its shard's lock, so the Ticket is complete when Submit returns. The
// shard's lock is the executor's own latch when Config.Latch supplies it, so
// a submission takes one lock for admission, execution and the books. The
// device's parallelism needs no host goroutines: each shard's virtual
// timeline advances independently, so a caller that submits a round of
// operations before waiting overlaps them across the dies, and measured
// throughput is bounded by the topology, not by caller concurrency.
//
// A successful submission costs 16 bytes, a 255th of a heap object: Submit
// carves its Ticket from the shard's current slab under the shard's lock and
// starts a fresh slab when that one is used up, and the ticket points at the
// engine's one shared successful outcome; a shed, cancelled or failed
// submission allocates an outcome of its own. Holding a ticket keeps its
// slab alive. Done
// returns one shared closed channel. Every accepted submission ends in
// exactly one of Stats' Completed, Shed and Cancelled before Submit returns.
//
// Admission control keeps overload from collapsing tail latency. Every
// operation carries a virtual arrival instant; the queue's budget is
// Depth × Quantum of backlog (depth expressed in service slots). An operation
// arriving when its shard is further behind than the budget is either shed
// with ErrFull (AdmitShed — the op is dropped and counted, completed work
// keeps a bounded p99.9) or admitted as delayed (AdmitWait — never dropped,
// the wait is accounted from the instant the queue had room and counted).
// Admission decisions are made against the shard's own virtual clock, in
// submission order, so for a single submitting goroutine the shed/delay
// pattern is deterministic. Callers without an arrival process of their own
// stamp the arrival of their round (Engine.RoundArrival): every submission
// since the last Ticket.Wait or Drain shares one arrival, as a batch's
// operations do.
//
// The queue is glued to the layers below through Config's hooks (ShardOf,
// Exec, Clock, Advance, Latch) rather than importing them, so it can front
// any sharded executor with a virtual clock.
package queue
