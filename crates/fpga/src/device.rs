//! The device: typed CLB/routing state kept in lock-step with the
//! configuration-memory bit image.
//!
//! All mutations go through configuration bits, in both directions:
//!
//! * typed mutators ([`Device::set_clb`], [`Device::add_pip`], …) update
//!   the typed model *and* write the corresponding configuration bits,
//!   returning the set of frames touched — the quantity the relocation
//!   cost model accounts;
//! * [`Device::write_frame`] (the path used by the bitstream/JTAG stack)
//!   writes raw frame data and incrementally re-decodes the affected typed
//!   resources, exactly as the silicon would.

use crate::cell::{LogicCell, CELL_CONFIG_BITS};
use crate::clb::{Clb, CELLS_PER_CLB};
use crate::config::layout::{
    self, cell_config_bit, frame_bit_owner, pip_config_bit, state_bit, PIP_BITS_BASE,
    STATE_BITS_BASE,
};
use crate::config::{ConfigMemory, Frame, FrameAddress, FrameWriteEffect};
use crate::error::FpgaError;
use crate::geom::{ClbCoord, Rect};
use crate::part::Part;
use crate::routing::{fixed_link, pip_exists, pip_table, Pip, RouteNode, Wire};
use std::collections::BTreeSet;

/// A Virtex-class device instance.
///
/// See the [crate-level documentation](crate) for an overview and example.
#[derive(Debug, Clone)]
pub struct Device {
    part: Part,
    clbs: Vec<Clb>,
    state: Vec<[bool; CELLS_PER_CLB]>,
    pips: BTreeSet<Pip>,
    config: ConfigMemory,
}

impl Device {
    /// A blank (unconfigured) device.
    pub fn new(part: Part) -> Self {
        let n = part.clb_count() as usize;
        Device {
            part,
            clbs: vec![Clb::default(); n],
            state: vec![[false; CELLS_PER_CLB]; n],
            pips: BTreeSet::new(),
            config: ConfigMemory::new(part),
        }
    }

    /// The part this device instantiates.
    pub fn part(&self) -> Part {
        self.part
    }

    /// CLB rows.
    pub fn rows(&self) -> u16 {
        self.part.clb_rows()
    }

    /// CLB columns.
    pub fn cols(&self) -> u16 {
        self.part.clb_cols()
    }

    /// The rectangle covering the whole CLB array.
    pub fn bounds(&self) -> Rect {
        Rect::new(ClbCoord::new(0, 0), self.rows(), self.cols())
    }

    /// Read-only view of the configuration memory.
    pub fn config(&self) -> &ConfigMemory {
        &self.config
    }

    /// Opens a configuration write journal (see
    /// [`ConfigMemory::begin_journal`]).
    pub fn begin_journal(&mut self) {
        self.config.begin_journal();
    }

    /// Closes the innermost write journal and returns the frames whose
    /// content changed since it began, in address order (see
    /// [`ConfigMemory::end_journal`]).
    pub fn end_journal(&mut self) -> Vec<FrameAddress> {
        self.config.end_journal()
    }

    fn idx(&self, coord: ClbCoord) -> Result<usize, FpgaError> {
        if coord.row >= self.rows() || coord.col >= self.cols() {
            return Err(FpgaError::OutOfBounds {
                coord,
                rows: self.rows(),
                cols: self.cols(),
            });
        }
        Ok(coord.row as usize * self.cols() as usize + coord.col as usize)
    }

    /// The CLB at `coord`.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] if `coord` is outside the array.
    pub fn clb(&self, coord: ClbCoord) -> Result<&Clb, FpgaError> {
        Ok(&self.clbs[self.idx(coord)?])
    }

    /// Replaces the CLB configuration at `coord`, returning the frames
    /// whose content changed.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] if `coord` is outside the array.
    pub fn set_clb(&mut self, coord: ClbCoord, clb: Clb) -> Result<Vec<FrameAddress>, FpgaError> {
        let idx = self.idx(coord)?;
        let mut touched = BTreeSet::new();
        for (cell_idx, cell) in clb.cells.iter().enumerate() {
            self.write_cell_bits(coord, cell_idx, cell, &mut touched)?;
        }
        self.clbs[idx] = clb;
        Ok(touched.into_iter().collect())
    }

    /// Writes one cell's configuration bits, adding every frame a bit
    /// changed in to `touched`.
    fn write_cell_bits(
        &mut self,
        coord: ClbCoord,
        cell: usize,
        config: &LogicCell,
        touched: &mut BTreeSet<FrameAddress>,
    ) -> Result<(), FpgaError> {
        for (bit_idx, bit) in config.encode().iter().enumerate() {
            let (addr, offset) = cell_config_bit(coord, cell, bit_idx);
            if self.config.set_bit(addr, offset, *bit)? {
                touched.insert(addr);
            }
        }
        Ok(())
    }

    /// Configures one logic cell, leaving the CLB's other cells untouched.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] if `coord` is outside the array.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= 4`.
    pub fn set_cell(
        &mut self,
        coord: ClbCoord,
        cell: usize,
        config: LogicCell,
    ) -> Result<Vec<FrameAddress>, FpgaError> {
        assert!(cell < CELLS_PER_CLB, "cell index {cell} out of range");
        let idx = self.idx(coord)?;
        let mut touched = BTreeSet::new();
        self.write_cell_bits(coord, cell, &config, &mut touched)?;
        self.clbs[idx].cells[cell] = config;
        Ok(touched.into_iter().collect())
    }

    /// The stored value of a cell's storage element.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] if `coord` is outside the array.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= 4`.
    pub fn cell_state(&self, coord: ClbCoord, cell: usize) -> Result<bool, FpgaError> {
        assert!(cell < CELLS_PER_CLB, "cell index {cell} out of range");
        Ok(self.state[self.idx(coord)?][cell])
    }

    /// Sets a cell's storage-element value (simulator write-through and the
    /// relocation state-capture path). Mirrored into the configuration
    /// memory's state bit, as Virtex frames capture FF state.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] if `coord` is outside the array.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= 4`.
    pub fn set_cell_state(
        &mut self,
        coord: ClbCoord,
        cell: usize,
        value: bool,
    ) -> Result<(), FpgaError> {
        assert!(cell < CELLS_PER_CLB, "cell index {cell} out of range");
        let idx = self.idx(coord)?;
        self.state[idx][cell] = value;
        let (addr, offset) = state_bit(coord, cell);
        self.config.set_bit(addr, offset, value)?;
        Ok(())
    }

    /// True if `pip` is currently active.
    pub fn has_pip(&self, pip: &Pip) -> bool {
        self.pips.contains(pip)
    }

    /// Activates a PIP, returning the frames touched (empty if the PIP was
    /// already active).
    ///
    /// Multiple PIPs may drive the same wire — the paper's relocation
    /// deliberately parallels drivers; disagreement between parallel
    /// drivers is detected by the simulator, not forbidden structurally.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::OutOfBounds`] for tiles outside the array and
    /// [`FpgaError::BadFrameAddress`] if the (from, to) pair is not in the
    /// switch pattern.
    pub fn add_pip(&mut self, pip: Pip) -> Result<Vec<FrameAddress>, FpgaError> {
        self.idx(pip.tile)?;
        if !pip_exists(pip.from, pip.to) {
            return Err(FpgaError::BadFrameAddress {
                detail: format!("no such pip in switch pattern: {pip}"),
            });
        }
        if !self.pips.insert(pip) {
            return Ok(Vec::new());
        }
        let (addr, offset) = pip_config_bit(&pip).expect("pip_exists implies a config bit");
        self.config.set_bit(addr, offset, true)?;
        Ok(vec![addr])
    }

    /// Deactivates a PIP, returning the frames touched.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::PipNotActive`] if the PIP is not currently
    /// active.
    pub fn remove_pip(&mut self, pip: &Pip) -> Result<Vec<FrameAddress>, FpgaError> {
        if !self.pips.remove(pip) {
            return Err(FpgaError::PipNotActive {
                detail: pip.to_string(),
            });
        }
        let (addr, offset) = pip_config_bit(pip).expect("active pip must have a config bit");
        self.config.set_bit(addr, offset, false)?;
        Ok(vec![addr])
    }

    /// All active PIPs.
    pub fn pips(&self) -> impl Iterator<Item = &Pip> {
        self.pips.iter()
    }

    /// Active PIPs within one tile.
    pub fn pips_in_tile(&self, tile: ClbCoord) -> impl Iterator<Item = &Pip> {
        self.pips.iter().filter(move |p| p.tile == tile)
    }

    /// Active PIPs that drive `node`'s wire.
    pub fn pips_driving(&self, node: RouteNode) -> Vec<Pip> {
        self.pips
            .iter()
            .filter(|p| p.tile == node.tile && p.to == node.wire)
            .copied()
            .collect()
    }

    /// Active PIPs that listen to `node`'s wire.
    pub fn pips_from(&self, node: RouteNode) -> Vec<Pip> {
        self.pips
            .iter()
            .filter(|p| p.tile == node.tile && p.from == node.wire)
            .copied()
            .collect()
    }

    /// Every routing node reachable downstream of `start` through active
    /// PIPs and fixed segment links (the physical extent of the net driven
    /// from `start`).
    pub fn trace_downstream(&self, start: RouteNode) -> BTreeSet<RouteNode> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![start];
        while let Some(node) = stack.pop() {
            if !seen.insert(node) {
                continue;
            }
            for pip in self.pips_from(node) {
                stack.push(pip.to_node());
            }
            if let Some(next) = fixed_link(node.tile, node.wire, self.rows(), self.cols()) {
                stack.push(next);
            }
        }
        seen
    }

    /// The logic-cell input pins (as route nodes) reached by the net
    /// driven from `start`.
    pub fn sinks_of(&self, start: RouteNode) -> Vec<RouteNode> {
        self.trace_downstream(start)
            .into_iter()
            .filter(|n| matches!(n.wire, Wire::CellIn(_, _) | Wire::CellCe(_)))
            .collect()
    }

    /// Reads a configuration frame (readback path).
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] for addresses outside the
    /// part.
    pub fn read_frame(&self, addr: FrameAddress) -> Result<Frame, FpgaError> {
        self.config.read_frame(addr)
    }

    /// Writes a configuration frame and re-decodes the typed resources the
    /// changed bits control — the path exercised by the bitstream/JTAG
    /// stack.
    ///
    /// # Errors
    ///
    /// Returns [`FpgaError::BadFrameAddress`] or
    /// [`FpgaError::FrameLengthMismatch`] as appropriate.
    pub fn write_frame(
        &mut self,
        addr: FrameAddress,
        frame: Frame,
    ) -> Result<FrameWriteEffect, FpgaError> {
        let effect = self.config.write_frame(addr, frame)?;
        let mut dirty_cells: BTreeSet<(ClbCoord, usize)> = BTreeSet::new();
        for &bit in &effect.changed_bits {
            let Some((tile, k)) = frame_bit_owner(self.part, addr, bit) else {
                continue;
            };
            if k < STATE_BITS_BASE {
                dirty_cells.insert((tile, k / CELL_CONFIG_BITS));
            } else if k < PIP_BITS_BASE {
                let cell = k - STATE_BITS_BASE;
                let value = self.config.get_bit(addr, bit)?;
                let idx = self.idx(tile)?;
                self.state[idx][cell] = value;
            } else {
                let pip_idx = k - PIP_BITS_BASE;
                if let Some(&(from, to)) = pip_table().get(pip_idx) {
                    let pip = Pip::new(tile, from, to);
                    let value = self.config.get_bit(addr, bit)?;
                    if value {
                        self.pips.insert(pip);
                    } else {
                        self.pips.remove(&pip);
                    }
                }
            }
        }
        for (tile, cell) in dirty_cells {
            let decoded = self.decode_cell_from_config(tile, cell)?;
            let idx = self.idx(tile)?;
            self.clbs[idx].cells[cell] = decoded;
        }
        Ok(effect)
    }

    fn decode_cell_from_config(&self, tile: ClbCoord, cell: usize) -> Result<LogicCell, FpgaError> {
        let mut bits = [false; CELL_CONFIG_BITS];
        for (i, slot) in bits.iter_mut().enumerate() {
            let (addr, offset) = cell_config_bit(tile, cell, i);
            *slot = self.config.get_bit(addr, offset)?;
        }
        Ok(LogicCell::decode(&bits))
    }

    /// The frames a full copy of `coord`'s CLB configuration must write
    /// (the cell-configuration minors of the tile's column).
    pub fn clb_config_frames(&self, coord: ClbCoord) -> Vec<FrameAddress> {
        layout::clb_config_minors()
            .map(|m| FrameAddress::clb(coord.col, m))
            .collect()
    }

    /// Rectangular region occupancy: CLB coordinates in `rect` whose CLB is
    /// configured.
    pub fn used_in(&self, rect: Rect) -> Vec<ClbCoord> {
        rect.iter()
            .filter(|c| self.clb(*c).map(|clb| clb.is_used()).unwrap_or(false))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;
    use crate::routing::Dir;

    fn small() -> Device {
        Device::new(Part::Xcv50)
    }

    #[test]
    fn blank_device_is_empty() {
        let dev = small();
        assert_eq!(dev.rows(), 16);
        assert_eq!(dev.cols(), 24);
        assert!(!dev.clb(ClbCoord::new(0, 0)).unwrap().is_used());
        assert_eq!(dev.pips().count(), 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let dev = small();
        assert!(dev.clb(ClbCoord::new(16, 0)).is_err());
        assert!(dev.clb(ClbCoord::new(0, 24)).is_err());
    }

    #[test]
    fn set_clb_roundtrips_through_config() {
        let mut dev = small();
        let coord = ClbCoord::new(4, 9);
        let mut clb = Clb::default();
        clb.cells[1].lut = Lut::from_bits(0xCAFE);
        clb.cells[1].registered_output = true;
        let touched = dev.set_clb(coord, clb).unwrap();
        assert!(!touched.is_empty());
        assert_eq!(dev.clb(coord).unwrap(), &clb);
        // All touched frames are in the tile's column.
        for addr in &touched {
            assert_eq!(addr.major, 9);
        }
        // Idempotent: rewriting the same CLB touches nothing.
        assert!(dev.set_clb(coord, clb).unwrap().is_empty());
    }

    #[test]
    fn set_cell_matches_a_whole_clb_write() {
        // Writing one cell touches exactly the frames, bits and journal
        // entries a whole-CLB write with that cell replaced would.
        let coord = ClbCoord::new(4, 9);
        let mut base = small();
        let mut clb = Clb::default();
        for (i, cell) in clb.cells.iter_mut().enumerate() {
            cell.lut = Lut::from_bits(0x1234 * (i as u16 + 1));
            cell.registered_output = i % 2 == 0;
        }
        base.set_clb(coord, clb).unwrap();
        for cell in 0..CELLS_PER_CLB {
            let mut config = clb.cells[cell];
            config.lut = Lut::from_bits(!config.lut.bits());
            config.uses_ce = true;
            let (mut one, mut whole) = (base.clone(), base.clone());
            one.begin_journal();
            whole.begin_journal();
            let touched = one.set_cell(coord, cell, config).unwrap();
            let mut replaced = clb;
            replaced.cells[cell] = config;
            assert_eq!(touched, whole.set_clb(coord, replaced).unwrap());
            assert_eq!(one.end_journal(), whole.end_journal());
            assert_eq!(one.clb(coord).unwrap(), &replaced);
            assert!(one.config() == whole.config());
        }
    }

    #[test]
    fn frame_write_decodes_clb() {
        let mut dev = small();
        let coord = ClbCoord::new(2, 3);
        let mut clb = Clb::default();
        clb.cells[0].lut = Lut::from_bits(0xAAAA);
        dev.set_clb(coord, clb).unwrap();

        // Copy the configuration through raw frames to another device.
        let mut dev2 = small();
        for minor in 0..48 {
            let addr = FrameAddress::clb(3, minor);
            let frame = dev.read_frame(addr).unwrap();
            dev2.write_frame(addr, frame).unwrap();
        }
        assert_eq!(dev2.clb(coord).unwrap(), &clb);
    }

    #[test]
    fn pip_add_remove_roundtrip() {
        let mut dev = small();
        let pip = Pip::new(
            ClbCoord::new(1, 1),
            Wire::CellOut(0),
            Wire::Out(Dir::East, 0),
        );
        let touched = dev.add_pip(pip).unwrap();
        assert_eq!(touched.len(), 1);
        assert!(dev.has_pip(&pip));
        assert!(dev.add_pip(pip).unwrap().is_empty(), "re-adding is a no-op");
        dev.remove_pip(&pip).unwrap();
        assert!(!dev.has_pip(&pip));
        assert!(dev.remove_pip(&pip).is_err());
    }

    #[test]
    fn invalid_pip_rejected() {
        let mut dev = small();
        let bad = Pip::new(ClbCoord::new(0, 0), Wire::CellIn(0, 0), Wire::CellOut(0));
        assert!(dev.add_pip(bad).is_err());
    }

    #[test]
    fn frame_write_decodes_pip() {
        let mut dev = small();
        let pip = Pip::new(
            ClbCoord::new(5, 7),
            Wire::CellOut(1),
            Wire::Out(Dir::North, 1),
        );
        dev.add_pip(pip).unwrap();
        let (addr, _) = crate::config::layout::pip_config_bit(&pip).unwrap();
        let frame = dev.read_frame(addr).unwrap();

        let mut dev2 = small();
        dev2.write_frame(addr, frame).unwrap();
        assert!(dev2.has_pip(&pip));
    }

    #[test]
    fn trace_follows_pips_and_segments() {
        let mut dev = small();
        let src_tile = ClbCoord::new(3, 3);
        let dst_tile = ClbCoord::new(3, 4);
        // cell0 output -> east single 0 -> next tile -> cell0 input pin
        dev.add_pip(Pip::new(
            src_tile,
            Wire::CellOut(0),
            Wire::Out(Dir::East, 0),
        ))
        .unwrap();
        // In(West, 0) arrives at dst; pattern allows CellIn(c, p) with
        // p == (0 + c) % 4 or (0 + c + 1) % 4 -> for c=0: p 0 or 1.
        dev.add_pip(Pip::new(
            dst_tile,
            Wire::In(Dir::West, 0),
            Wire::CellIn(0, 0),
        ))
        .unwrap();
        let sinks = dev.sinks_of(RouteNode::new(src_tile, Wire::CellOut(0)));
        assert_eq!(sinks, vec![RouteNode::new(dst_tile, Wire::CellIn(0, 0))]);
    }

    #[test]
    fn state_mirrors_into_config() {
        let mut dev = small();
        let coord = ClbCoord::new(8, 8);
        dev.set_cell_state(coord, 2, true).unwrap();
        assert!(dev.cell_state(coord, 2).unwrap());
        let (addr, bit) = state_bit(coord, 2);
        assert!(dev.config().get_bit(addr, bit).unwrap());

        // And the frame path propagates state back into the typed model.
        let frame = dev.read_frame(addr).unwrap();
        let mut dev2 = small();
        dev2.write_frame(addr, frame).unwrap();
        assert!(dev2.cell_state(coord, 2).unwrap());
    }

    #[test]
    fn multiple_drivers_allowed_and_queryable() {
        let mut dev = small();
        let tile = ClbCoord::new(2, 2);
        let node = RouteNode::new(tile, Wire::Out(Dir::South, 1));
        dev.add_pip(Pip::new(tile, Wire::CellOut(0), Wire::Out(Dir::South, 1)))
            .unwrap();
        dev.add_pip(Pip::new(tile, Wire::CellOut(1), Wire::Out(Dir::South, 1)))
            .unwrap();
        assert_eq!(dev.pips_driving(node).len(), 2);
    }

    #[test]
    fn used_in_reports_occupancy() {
        let mut dev = small();
        let mut clb = Clb::default();
        clb.cells[0].lut = Lut::constant(true);
        dev.set_clb(ClbCoord::new(1, 1), clb).unwrap();
        let used = dev.used_in(Rect::new(ClbCoord::new(0, 0), 4, 4));
        assert_eq!(used, vec![ClbCoord::new(1, 1)]);
    }
}
