//! The bounded event ring: VM exits and superblock lifecycle events on
//! one simulated-time line.

use crate::cause::ExitCause;

/// What happened to a translated superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuperblockEvent {
    /// A superblock was formed at `pa` (`arg` = µop count).
    Translate,
    /// Every translated block was invalidated (`pa` and `arg` are 0).
    Invalidate,
    /// A self-modifying-code drain killed the blocks in page `arg`
    /// (`pa` = the page's base physical address).
    SmcDrain,
}

impl SuperblockEvent {
    /// Stable name for trace exports.
    pub fn name(self) -> &'static str {
        match self {
            SuperblockEvent::Translate => "sb_translate",
            SuperblockEvent::Invalidate => "sb_invalidate",
            SuperblockEvent::SmcDrain => "sb_smc_drain",
        }
    }
}

/// What one ring record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A VM exit (or a VMM event such as a world switch).
    Exit {
        /// Why control left the VM.
        cause: ExitCause,
        /// The VM's *virtual* ring (access-mode bits, 0 = kernel … 3 =
        /// user) at exit time — the mode the guest believes it is in,
        /// not the compressed real mode.
        ring: u8,
        /// Guest PC at exit (for faults and emulation traps this is the
        /// faulting/trapping instruction; PC has not been advanced).
        guest_pc: u32,
    },
    /// A superblock lifecycle event.
    Superblock {
        /// What happened.
        kind: SuperblockEvent,
        /// Entry (or page base) physical address.
        pa: u32,
        /// Kind-specific argument (µop count / 0 / pfn).
        arg: u32,
    },
}

/// One record of the ring: an event and its span on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// What happened.
    pub event: TraceEvent,
    /// Simulated-cycle timestamp when it happened (an exit: when it
    /// began).
    pub start_cycles: u64,
    /// Simulated cycles from exit to resume (microcode trap entry plus
    /// the VMM software path). Zero until the exit completes, and always
    /// zero for a superblock event, which is an instant.
    pub cost_cycles: u64,
}

/// A bounded ring of [`TraceRecord`]s in push order.
///
/// Storage is allocated once at construction; recording overwrites the
/// oldest entry when full and never allocates, so the hot path stays
/// allocation-free regardless of run length.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    cap: usize,
    /// Index the next record will be written at.
    next: usize,
    /// Total records ever pushed: the next record's sequence number.
    total: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> TraceRing {
        let cap = capacity.max(1);
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap,
            next: 0,
            total: 0,
        }
    }

    /// Appends a record, overwriting the oldest when full. Returns the
    /// record's sequence number, which [`TraceRing::get_mut`] resolves
    /// for as long as the record stays in the ring.
    pub fn push(&mut self, rec: TraceRecord) -> u64 {
        let seq = self.total;
        if self.buf.len() < self.cap {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
        }
        self.next = if self.next + 1 == self.cap {
            0
        } else {
            self.next + 1
        };
        self.total += 1;
        seq
    }

    /// The record pushed as sequence number `seq`, or `None` once
    /// `capacity` later pushes have overwritten it.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut TraceRecord> {
        let back = self.total.checked_sub(seq)?;
        if back == 0 || back > self.buf.len() as u64 {
            return None;
        }
        // `back` ≤ len ≤ cap, so one wrap at most.
        let back = back as usize;
        let slot = if back <= self.next {
            self.next - back
        } else {
            self.next + self.cap - back
        };
        self.buf.get_mut(slot)
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum records held.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total records ever pushed, including overwritten ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Iterates oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let split = if self.buf.len() < self.cap {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64) -> TraceRecord {
        TraceRecord {
            event: TraceEvent::Exit {
                cause: ExitCause::EmulRei,
                ring: 0,
                guest_pc: 0x1000,
            },
            start_cycles: t,
            cost_cycles: 0,
        }
    }

    #[test]
    fn wraps_and_keeps_newest() {
        let mut r = TraceRing::new(3);
        for t in 0..5 {
            r.push(rec(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.total(), 5);
        assert_eq!(r.dropped(), 2);
        let starts: Vec<u64> = r.iter().map(|x| x.start_cycles).collect();
        assert_eq!(starts, [2, 3, 4], "oldest-first, newest retained");
    }

    #[test]
    fn push_index_patchable() {
        let mut r = TraceRing::new(2);
        let i = r.push(rec(7));
        r.get_mut(i).unwrap().cost_cycles = 99;
        assert_eq!(r.iter().next().unwrap().cost_cycles, 99);
    }

    #[test]
    fn sequence_numbers_resolve_only_while_retained() {
        let mut r = TraceRing::new(2);
        let a = r.push(rec(1));
        let b = r.push(rec(2));
        assert_eq!(r.get_mut(a).map(|x| x.start_cycles), Some(1));
        r.push(rec(3)); // overwrites `a`'s slot
        assert!(r.get_mut(a).is_none(), "an overwritten record is gone");
        assert_eq!(r.get_mut(b).map(|x| x.start_cycles), Some(2));
        assert!(r.get_mut(99).is_none(), "never pushed");
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut r = TraceRing::new(0);
        assert_eq!(r.capacity(), 1);
        r.push(rec(1));
        r.push(rec(2));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().unwrap().start_cycles, 2);
    }
}
