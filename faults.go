package geckoftl

import (
	"fmt"

	"geckoftl/internal/flash"
)

// FaultPlan describes how the simulated media misbehaves: per-operation
// probabilistic failure rates plus a scripted schedule, all deterministic
// under Seed. Install one at Open with WithFaultPlan. The FTL is built to
// survive every fault a plan can inject — failed programs are retried on the
// next frontier page, failed (or worn-out) erases retire the block as a grown
// bad block, and read-disturbed blocks are scrubbed when
// FTLOptions.ScrubReadThreshold is set — so a fault plan degrades capacity and performance, never
// correctness.
type FaultPlan = flash.FaultPlan

// FaultEvent schedules one deterministic fault: the Nth device operation of
// the given kind (1-based, counted while the plan is installed) fails.
type FaultEvent = flash.FaultEvent

// FlashOp identifies a device operation kind in a FaultEvent.
type FlashOp = flash.Op

// The operation kinds a FaultEvent can target.
const (
	// OpPageWrite faults fail the page program; the page is consumed
	// unreadable and the FTL retries on the next frontier page.
	OpPageWrite = flash.OpPageWrite
	// OpPageRead faults decay the page payload (read disturb); the read
	// fails with ErrReadDecayed.
	OpPageRead = flash.OpPageRead
	// OpErase faults fail the block erase; the block is retired as a grown
	// bad block and the device's usable capacity shrinks by one block.
	OpErase = flash.OpErase
)

// WithFaultPlan installs a fault-injection plan on the device before any IO
// is issued. The zero plan injects nothing. Invalid plans (rates outside
// [0,1], events for operations that cannot fault) are rejected by Open under
// ErrInvalidConfig.
func WithFaultPlan(plan FaultPlan) Option {
	return func(c *config) error {
		if err := plan.Validate(); err != nil {
			return fmt.Errorf("%w: %w", ErrInvalidConfig, err)
		}
		c.faults = &plan
		return nil
	}
}
