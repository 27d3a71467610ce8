package simdisk

import (
	"context"
)

// runKey identifies one device run read: a reader attaches only to an
// in-flight read of exactly the same pages.
type runKey struct {
	id       FileID
	start, n int64
}

// SetShareReads turns single-flight run coalescing on or off. With sharing
// on, concurrent ReadRun/ReadRunCtx calls for the same page range of the
// same file coalesce: one reader (the leader) performs and is charged the
// physical read, every other reader attaches to it and receives the same
// buffer — no platter charge, no cache traffic, counted in
// Stats.CoalescedReads/CoalescedPages. Off (the default) every read is
// independent, bit-for-bit the original model.
func (d *Device) SetShareReads(share bool) {
	d.shareReads.Store(share)
}

// ShareReads reports whether single-flight run coalescing is on.
func (d *Device) ShareReads() bool { return d.shareReads.Load() }

// readRunShared is the coalescing read path behind SetShareReads(true),
// single-flighted per (file, start, n). The leader's read includes its
// aggregated real-time emulation sleep, so an attached reader that returns
// has genuinely waited out the device latency it shares. Attachment is
// zero-copy: the returned slice may alias the leader's buffer, which
// callers must treat as read-only (every caller in this repository decodes
// out of it and drops it, never writes into it).
//
// When a leader fails (fault injection, cancellation, a concurrent delete),
// its waiters re-enter the group rather than each falling back to an
// independent read: exactly one retry read is charged, the rest attach.
func (d *Device) readRunShared(ctx context.Context, id FileID, start, n int64) ([]byte, error) {
	buf, shared, err := d.runs.Do(ctx, runKey{id: id, start: start, n: n}, func() ([]byte, error) {
		return d.readRunDirect(ctx, id, start, n)
	})
	if shared {
		if err != nil {
			d.canceledOps.Add(1)
			return nil, Canceled(err)
		}
		d.coalescedReads.Add(1)
		d.coalescedPages.Add(n)
	}
	return buf, err
}

// SetShareReads fans the coalescing switch out to every member device.
// Coalescing is per member: an array never merges reads across spindles,
// because there is no shared head to save.
func (a *DeviceArray) SetShareReads(share bool) {
	for _, m := range a.members {
		m.SetShareReads(share)
	}
}

// ShareReads reports the members' common coalescing state.
func (a *DeviceArray) ShareReads() bool { return a.members[0].ShareReads() }
