//! The configuration-memory bit image.

use crate::bits::BitVec;
use crate::config::frame::{BlockType, Frame, FrameAddress};
use crate::error::FpgaError;
use crate::part::{Part, FRAMES_CLOCK_COLUMN, FRAMES_PER_CLB_COLUMN, FRAMES_PER_IOB_COLUMN};
use std::collections::BTreeMap;

/// The result of writing one frame: which payload bits actually changed.
///
/// The relocation procedure relies on the fact that "rewriting the same
/// configuration data does not generate any transient signals" (paper §2);
/// auditing `changed_bits` against the set of bits a step *intended* to
/// change is how the transparency verifier proves a step is safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameWriteEffect {
    /// The frame that was written.
    pub addr: FrameAddress,
    /// Payload bit positions whose value changed.
    pub changed_bits: Vec<usize>,
}

impl FrameWriteEffect {
    /// True if the write was a pure rewrite (no level changes anywhere).
    pub fn is_transparent_rewrite(&self) -> bool {
        self.changed_bits.is_empty()
    }
}

/// The full configuration memory of one device: a map from frame address
/// to frame payload, all frames initially zero.
///
/// A memory can also keep nestable **write journals**
/// ([`ConfigMemory::begin_journal`] / [`ConfigMemory::end_journal`]): the
/// list of frames a span of writes changed, at a cost that scales with
/// the frames written rather than with the whole memory. Journals are
/// bookkeeping, not configuration: equality and
/// [`ConfigMemory::snapshot`] ignore them.
///
/// ```
/// use rtm_fpga::config::{ConfigMemory, FrameAddress};
/// use rtm_fpga::part::Part;
///
/// # fn main() -> Result<(), rtm_fpga::FpgaError> {
/// let mut mem = ConfigMemory::new(Part::Xcv200);
/// let addr = FrameAddress::clb(0, 0);
/// let mut frame = mem.read_frame(addr)?;
/// frame.set(5, true);
/// let effect = mem.write_frame(addr, frame)?;
/// assert_eq!(effect.changed_bits, vec![5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConfigMemory {
    part: Part,
    // Only frames that have ever been written are stored; absent frames
    // read as all-zero.
    frames: BTreeMap<FrameAddress, Frame>,
    // Open write journals, innermost last. Each maps every frame a write
    // changed since the journal began to its payload at that first
    // change.
    journals: Vec<BTreeMap<FrameAddress, Frame>>,
}

impl PartialEq for ConfigMemory {
    fn eq(&self, other: &Self) -> bool {
        self.part == other.part && self.frames == other.frames
    }
}

impl Eq for ConfigMemory {}

impl ConfigMemory {
    /// An all-zero configuration memory for `part`.
    pub fn new(part: Part) -> Self {
        ConfigMemory {
            part,
            frames: BTreeMap::new(),
            journals: Vec::new(),
        }
    }

    /// The device this memory belongs to.
    pub fn part(&self) -> Part {
        self.part
    }

    /// Frame payload length in bits.
    pub fn frame_len(&self) -> usize {
        self.part.frame_payload_bits()
    }

    /// Validates that `addr` exists on this part.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] if the column or minor index
    /// is out of range.
    pub fn validate_addr(&self, addr: FrameAddress) -> Result<(), FpgaError> {
        let ok = match addr.block {
            BlockType::Clb => {
                addr.major < self.part.clb_cols() && addr.minor < FRAMES_PER_CLB_COLUMN
            }
            BlockType::Iob => addr.major < 2 && addr.minor < FRAMES_PER_IOB_COLUMN,
            BlockType::Clock => addr.major == 0 && addr.minor < FRAMES_CLOCK_COLUMN,
        };
        if ok {
            Ok(())
        } else {
            Err(FpgaError::BadFrameAddress {
                detail: format!("{addr} on {}", self.part),
            })
        }
    }

    /// Reads a frame (readback).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part.
    pub fn read_frame(&self, addr: FrameAddress) -> Result<Frame, FpgaError> {
        self.validate_addr(addr)?;
        Ok(self
            .frames
            .get(&addr)
            .cloned()
            .unwrap_or_else(|| Frame::zeros(self.frame_len())))
    }

    /// Writes a frame, returning which bits changed.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part and [`FpgaError::FrameLengthMismatch`] if the payload length is
    /// wrong.
    pub fn write_frame(
        &mut self,
        addr: FrameAddress,
        frame: Frame,
    ) -> Result<FrameWriteEffect, FpgaError> {
        self.validate_addr(addr)?;
        if frame.len() != self.frame_len() {
            return Err(FpgaError::FrameLengthMismatch {
                expected: self.frame_len(),
                actual: frame.len(),
            });
        }
        let old = self.read_frame(addr)?;
        let changed_bits = old.diff(&frame);
        if !changed_bits.is_empty() {
            if let Some(journal) = self.journals.last_mut() {
                journal.entry(addr).or_insert(old);
            }
        }
        self.frames.insert(addr, frame);
        Ok(FrameWriteEffect { addr, changed_bits })
    }

    /// Reads one bit of one frame.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part.
    ///
    /// # Panics
    ///
    /// Panics if `bit` exceeds the frame length.
    pub fn get_bit(&self, addr: FrameAddress, bit: usize) -> Result<bool, FpgaError> {
        Ok(self.read_frame(addr)?.get(bit))
    }

    /// Sets one bit of one frame, returning whether the value changed.
    ///
    /// Note: on real hardware this still costs a whole-frame write; the
    /// cost model accounts frames, not bits.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part.
    ///
    /// # Panics
    ///
    /// Panics if `bit` exceeds the frame length.
    pub fn set_bit(
        &mut self,
        addr: FrameAddress,
        bit: usize,
        value: bool,
    ) -> Result<bool, FpgaError> {
        self.validate_addr(addr)?;
        let len = self.frame_len();
        let frame = self.frames.entry(addr).or_insert_with(|| Frame::zeros(len));
        if frame.get(bit) == value {
            return Ok(false);
        }
        if let Some(journal) = self.journals.last_mut() {
            journal.entry(addr).or_insert_with(|| frame.clone());
        }
        frame.set(bit, value);
        Ok(true)
    }

    /// Opens a write journal. Until the matching
    /// [`ConfigMemory::end_journal`], every [`ConfigMemory::write_frame`]
    /// and [`ConfigMemory::set_bit`] that changes a frame records the
    /// frame's payload from before its first change. Journals nest; only
    /// the innermost one records.
    pub fn begin_journal(&mut self) {
        self.journals.push(BTreeMap::new());
    }

    /// Closes the innermost journal and returns, in address order, the
    /// frames whose payload now differs from when the journal began —
    /// exactly `self.diff_frames(&snapshot)` for a snapshot taken at
    /// [`ConfigMemory::begin_journal`]. A frame written back to its old
    /// value is not listed. Closing a nested journal hands its records
    /// to the enclosing one, so the outer journal still sees every
    /// write made inside it. Closing with no journal open is a caller
    /// bug: debug builds panic, release builds return an empty list.
    pub fn end_journal(&mut self) -> Vec<FrameAddress> {
        debug_assert!(
            !self.journals.is_empty(),
            "end_journal without begin_journal"
        );
        let Some(journal) = self.journals.pop() else {
            return Vec::new();
        };
        let zero = Frame::zeros(self.frame_len());
        let changed = journal
            .iter()
            .filter(|&(addr, old)| self.frames.get(addr).unwrap_or(&zero) != old)
            .map(|(addr, _)| *addr)
            .collect();
        if let Some(outer) = self.journals.last_mut() {
            for (addr, old) in journal {
                outer.entry(addr).or_insert(old);
            }
        }
        changed
    }

    /// Number of open write journals.
    pub fn journal_depth(&self) -> usize {
        self.journals.len()
    }

    /// All frame addresses that currently differ from `other`.
    ///
    /// This is the primitive behind partial-bitstream generation: the tool
    /// writes exactly these frames.
    pub fn diff_frames(&self, other: &ConfigMemory) -> Vec<FrameAddress> {
        let mut out = Vec::new();
        let zero = Frame::zeros(self.frame_len());
        let mut addrs: Vec<FrameAddress> = self
            .frames
            .keys()
            .chain(other.frames.keys())
            .copied()
            .collect();
        addrs.sort();
        addrs.dedup();
        for addr in addrs {
            let a = self.frames.get(&addr).unwrap_or(&zero);
            let b = other.frames.get(&addr).unwrap_or(&zero);
            if a != b {
                out.push(addr);
            }
        }
        out
    }

    /// Number of frames that have been written at least once.
    pub fn touched_frames(&self) -> usize {
        self.frames.len()
    }

    /// A snapshot for recovery ("the program always keeps a complete copy
    /// of the current configuration", paper §4). The copy has no open
    /// journals.
    pub fn snapshot(&self) -> ConfigMemory {
        ConfigMemory {
            part: self.part,
            frames: self.frames.clone(),
            journals: Vec::new(),
        }
    }

    /// Packs every non-zero frame as address + payload words (a trivial
    /// serialisation used by the recovery file format).
    pub fn dump(&self) -> Vec<(FrameAddress, Vec<u32>)> {
        self.frames
            .iter()
            .map(|(addr, frame)| (*addr, frame.as_bits().to_config_words()))
            .collect()
    }

    /// Rebuilds a memory from [`ConfigMemory::dump`] output.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] if a dumped address does not
    /// exist on `part`.
    pub fn restore(part: Part, dump: &[(FrameAddress, Vec<u32>)]) -> Result<Self, FpgaError> {
        let mut mem = ConfigMemory::new(part);
        for (addr, words) in dump {
            let bits = BitVec::from_config_words(words, mem.frame_len());
            mem.write_frame(*addr, Frame::from_bits(bits))?;
        }
        Ok(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unwritten_frames_read_zero() {
        let mem = ConfigMemory::new(Part::Xcv50);
        let f = mem.read_frame(FrameAddress::clb(3, 7)).unwrap();
        assert_eq!(f.as_bits().count_ones(), 0);
        assert_eq!(f.len(), Part::Xcv50.frame_payload_bits());
    }

    #[test]
    fn write_reports_changed_bits_only() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let addr = FrameAddress::clb(0, 0);
        let mut f = mem.read_frame(addr).unwrap();
        f.set(1, true);
        f.set(100, true);
        let e1 = mem.write_frame(addr, f.clone()).unwrap();
        assert_eq!(e1.changed_bits, vec![1, 100]);
        // Rewriting identical data: zero transients.
        let e2 = mem.write_frame(addr, f).unwrap();
        assert!(e2.is_transparent_rewrite());
    }

    #[test]
    fn bad_addresses_rejected() {
        let mem = ConfigMemory::new(Part::Xcv50);
        assert!(mem.read_frame(FrameAddress::clb(24, 0)).is_err());
        assert!(mem.read_frame(FrameAddress::clb(0, 48)).is_err());
        assert!(mem.read_frame(FrameAddress::iob(2, 0)).is_err());
        assert!(mem.read_frame(FrameAddress::clock(8)).is_err());
        assert!(mem.read_frame(FrameAddress::clock(7)).is_ok());
    }

    #[test]
    fn wrong_frame_length_rejected() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let err = mem
            .write_frame(FrameAddress::clb(0, 0), Frame::zeros(10))
            .unwrap_err();
        assert!(matches!(err, FpgaError::FrameLengthMismatch { .. }));
    }

    #[test]
    fn set_bit_reports_change() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let addr = FrameAddress::clb(1, 1);
        assert!(mem.set_bit(addr, 9, true).unwrap());
        assert!(!mem.set_bit(addr, 9, true).unwrap());
        assert!(mem.get_bit(addr, 9).unwrap());
    }

    #[test]
    fn diff_frames_finds_exactly_differences() {
        let mut a = ConfigMemory::new(Part::Xcv50);
        let mut b = ConfigMemory::new(Part::Xcv50);
        a.set_bit(FrameAddress::clb(2, 3), 0, true).unwrap();
        b.set_bit(FrameAddress::clb(2, 3), 0, true).unwrap();
        a.set_bit(FrameAddress::clb(5, 1), 4, true).unwrap();
        b.set_bit(FrameAddress::clock(2), 8, true).unwrap();
        let d = a.diff_frames(&b);
        assert_eq!(d, vec![FrameAddress::clock(2), FrameAddress::clb(5, 1)]);
        assert_eq!(a.diff_frames(&a.clone()), vec![]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut mem = ConfigMemory::new(Part::Xcv100);
        mem.set_bit(FrameAddress::clb(7, 11), 33, true).unwrap();
        mem.set_bit(FrameAddress::iob(1, 20), 2, true).unwrap();
        let dump = mem.dump();
        let back = ConfigMemory::restore(Part::Xcv100, &dump).unwrap();
        assert_eq!(back, mem);
        assert!(back.snapshot().diff_frames(&mem).is_empty());
    }

    #[test]
    fn journals_are_not_configuration() {
        let mut mem = ConfigMemory::new(Part::Xcv50);
        let plain = mem.clone();
        mem.begin_journal();
        assert_eq!(mem, plain, "equality ignores open journals");
        assert_eq!(mem.snapshot().journal_depth(), 0);
        mem.set_bit(FrameAddress::clb(1, 1), 3, true).unwrap();
        mem.set_bit(FrameAddress::clb(1, 1), 3, false).unwrap();
        assert_eq!(mem.end_journal(), vec![], "written back to its old value");
        assert_eq!(mem.journal_depth(), 0);
    }

    /// Frames the journal property writes: few enough that writes
    /// collide, on every block type.
    fn addrs() -> [FrameAddress; 6] {
        [
            FrameAddress::clb(0, 0),
            FrameAddress::clb(0, 1),
            FrameAddress::clb(3, 5),
            FrameAddress::clb(23, 47),
            FrameAddress::iob(1, 2),
            FrameAddress::clock(3),
        ]
    }

    proptest! {
        /// Every journal, nested or not, lists exactly the frames
        /// `diff_frames` finds against a snapshot taken when it began.
        #[test]
        fn journal_equals_snapshot_diff(
            pre in proptest::collection::vec((0usize..6, 0usize..48, any::<bool>()), 0..20),
            ops in proptest::collection::vec(
                (0u8..9, 0usize..6, 0usize..48, any::<bool>()), 0..60),
        ) {
            let mut mem = ConfigMemory::new(Part::Xcv50);
            let len = mem.frame_len();
            for (f, bit, v) in pre {
                mem.set_bit(addrs()[f], bit, v).unwrap();
            }
            // The memory at each open journal's begin, innermost last.
            let mut begun = vec![mem.snapshot()];
            mem.begin_journal();
            for (op, f, bit, v) in ops {
                let addr = addrs()[f];
                match op {
                    0..=2 => {
                        mem.set_bit(addr, bit, v).unwrap();
                    }
                    3 => {
                        let mut frame = mem.read_frame(addr).unwrap();
                        let flipped = !frame.get(bit);
                        frame.set(bit, flipped);
                        frame.set((bit * 7 + 3) % len, v);
                        mem.write_frame(addr, frame).unwrap();
                    }
                    // Write-backs to the innermost and the outermost
                    // journal's original payload.
                    4 => {
                        let frame = begun[begun.len() - 1].read_frame(addr).unwrap();
                        mem.write_frame(addr, frame).unwrap();
                    }
                    5 => {
                        let frame = begun[0].read_frame(addr).unwrap();
                        mem.write_frame(addr, frame).unwrap();
                    }
                    6 => {
                        begun.push(mem.snapshot());
                        mem.begin_journal();
                    }
                    _ if begun.len() > 1 => {
                        let at_begin = begun.pop().unwrap();
                        prop_assert_eq!(mem.end_journal(), mem.diff_frames(&at_begin));
                    }
                    _ => {}
                }
                prop_assert_eq!(mem.journal_depth(), begun.len());
            }
            while let Some(at_begin) = begun.pop() {
                prop_assert_eq!(mem.end_journal(), mem.diff_frames(&at_begin));
            }
            prop_assert_eq!(mem.journal_depth(), 0);
        }
    }
}
