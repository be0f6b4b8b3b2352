//! The Win32 service cost engine.
//!
//! Translates abstract work requests (computes, API calls, GDI batches,
//! interrupts, I/O paths) into [`WorkPacket`]s — concrete cycle and
//! hardware-event charges — according to the active OS personality. This is
//! where the paper's architectural stories become mechanisms:
//!
//! * NT 3.51's user-level Win32 server: each service crossing flushes both
//!   TLBs and refills the server's working set; the return crossing flushes
//!   again, so the client refills afterwards (§5.3).
//! * NT 4.0's kernel-mode Win32: a mode switch, no flush, a small fixed TLB
//!   dilution per call.
//! * Windows 95's 16-bit thunks: transport and service run in the
//!   segment-load-heavy [`HwMix::WIN16`] mix (§4).

use latlab_hw::{EventCounts, HwEvent, HwMix, MixAccumulator, TlbPair, WorkCharge};

use crate::profile::{OsParams, Win32Arch};
use crate::program::{ComputeSpec, MixClass};
use crate::sweep::SweptParam;

/// What a packet of work represents, for attribution and debugging.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkKind {
    /// Application compute.
    App,
    /// System-API service work.
    Api,
    /// Hardware interrupt handling.
    Interrupt,
    /// Context switch.
    ContextSwitch,
    /// I/O path CPU work (cache copies, page-in bookkeeping).
    Io,
    /// OS background activity.
    Background,
    /// Busy-wait quirk work (Windows 95 mouse spin, post-event lag).
    Spin,
}

/// A fully costed, schedulable piece of CPU work.
#[derive(Clone, Copy, Debug)]
pub struct WorkPacket {
    /// Cycle cost.
    pub cycles: u64,
    /// Hardware events generated over those cycles.
    pub events: EventCounts,
    /// Attribution.
    pub kind: WorkKind,
}

impl WorkPacket {
    /// A packet of no work (zero cycles, no events).
    const EMPTY: WorkPacket = WorkPacket {
        cycles: 0,
        events: EventCounts::ZERO,
        kind: WorkKind::App,
    };

    fn from_charge(charge: WorkCharge, kind: WorkKind) -> Self {
        WorkPacket {
            cycles: charge.cycles,
            events: charge.events,
            kind,
        }
    }
}

/// The most packets one costed request produces: a user-level server's
/// send, service and return.
pub const MAX_PACKETS: usize = 3;

/// Up to [`MAX_PACKETS`] work packets, held inline so costing a service
/// call never allocates. Derefs to the slice of packets pushed so far.
#[derive(Clone, Copy, Debug)]
pub struct Packets {
    items: [WorkPacket; MAX_PACKETS],
    len: u8,
}

impl Packets {
    /// An empty list.
    pub const EMPTY: Packets = Packets {
        items: [WorkPacket::EMPTY; MAX_PACKETS],
        len: 0,
    };

    /// Appends a packet.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_PACKETS`].
    pub fn push(&mut self, packet: WorkPacket) {
        self.items[self.len as usize] = packet;
        self.len += 1;
    }

    /// Empties the list in place, leaving the stale items unwritten.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl std::ops::Deref for Packets {
    type Target = [WorkPacket];

    fn deref(&self) -> &[WorkPacket] {
        &self.items[..self.len as usize]
    }
}

/// The cost engine: OS parameters plus live TLB state and per-mix
/// fractional-event accumulators.
///
/// `Clone` captures the complete costing state (TLB occupancy, fractional
/// remainders, pending read mask), so a cloned engine continues
/// bit-identically — whole-machine snapshots rely on this.
#[derive(Clone, Debug)]
pub struct CostEngine {
    params: OsParams,
    tlb: TlbPair,
    acc_app: MixAccumulator,
    acc_gui: MixAccumulator,
    acc_kernel: MixAccumulator,
    /// Swept parameters consulted since the last
    /// [`CostEngine::take_param_reads`], as [`SweptParam::bit`] flags. The
    /// kernel drains this into its first-read watermark table with a
    /// conservative-early timestamp (see `crate::sweep`).
    reads: u8,
}

impl CostEngine {
    /// Creates an engine for a personality with a cold TLB.
    pub fn new(params: OsParams) -> Self {
        CostEngine {
            params,
            tlb: TlbPair::pentium(),
            acc_app: MixAccumulator::new(),
            acc_gui: MixAccumulator::new(),
            acc_kernel: MixAccumulator::new(),
            reads: 0,
        }
    }

    /// The active parameters.
    pub fn params(&self) -> &OsParams {
        &self.params
    }

    /// Replaces the parameter set (sweep forks re-point a restored engine
    /// at the swept value). Costing state is untouched.
    pub fn set_params(&mut self, params: OsParams) {
        self.params = params;
    }

    /// Returns and clears the mask of swept parameters read since the last
    /// call.
    pub fn take_param_reads(&mut self) -> u8 {
        std::mem::take(&mut self.reads)
    }

    /// Resolves a [`MixClass`] to the personality's concrete mix.
    pub fn mix_for(&self, class: MixClass) -> HwMix {
        match class {
            MixClass::App => self.params.app_mix,
            MixClass::Gui | MixClass::GuiText | MixClass::GuiDraw => self.params.gui_mix,
            MixClass::Kernel => self.params.kernel_mix,
            MixClass::Raw(m) => m,
        }
    }

    fn charge_mix(&mut self, class: MixClass, instructions: u64) -> WorkCharge {
        let mix = self.mix_for(class);
        let acc = match class {
            MixClass::App => &mut self.acc_app,
            MixClass::Gui | MixClass::GuiText | MixClass::GuiDraw => &mut self.acc_gui,
            MixClass::Kernel | MixClass::Raw(_) => &mut self.acc_kernel,
        };
        acc.charge(&mix, instructions)
    }

    /// Applies the personality's GUI path-length factor.
    fn gui_instr(&mut self, instructions: u64) -> u64 {
        self.reads |= SweptParam::GuiPathMilli.bit();
        instructions * self.params.gui_path_milli / 1_000
    }

    /// Adds TLB-touch misses (and their cycle penalties) to a charge.
    fn add_tlb_touch(&mut self, charge: &mut WorkCharge, code_pages: u32, data_pages: u32) {
        let (im, dm) = self.tlb.touch(code_pages, data_pages);
        self.add_tlb_misses(charge, im as u64, dm as u64);
    }

    fn add_tlb_misses(&mut self, charge: &mut WorkCharge, im: u64, dm: u64) {
        charge.events.add(HwEvent::ItlbMisses, im);
        charge.events.add(HwEvent::DtlbMisses, dm);
        charge.cycles += (im + dm) * latlab_hw::costs::TLB_MISS_CYCLES;
    }

    /// Costs an application-requested compute.
    pub fn compute(&mut self, spec: &ComputeSpec) -> WorkPacket {
        let mut charge = self.compute_warm(spec);
        self.add_tlb_touch(&mut charge, spec.code_pages, spec.data_pages);
        WorkPacket::from_charge(charge, WorkKind::App)
    }

    /// The accumulator-only part of [`CostEngine::compute`]: path-length
    /// scaling plus the mix charge, without the TLB touch. When the spec's
    /// working set is already resident (see [`CostEngine::tlb_covers`]) the
    /// touch contributes no misses, no cycles, and no state change, so this
    /// is exactly `compute` minus the packet wrapper — the kernel's idle
    /// fast-forward uses it to cost steady-state idle iterations without
    /// the per-packet TLB bookkeeping.
    pub fn compute_warm(&mut self, spec: &ComputeSpec) -> WorkCharge {
        let instr = match spec.class {
            MixClass::Gui => self.gui_instr(spec.instructions),
            MixClass::GuiText => spec.instructions * self.params.gui_text_path_milli / 1_000,
            MixClass::GuiDraw => {
                self.reads |= SweptParam::GdiPathMilli.bit();
                spec.instructions * self.params.gdi_path_milli / 1_000
            }
            _ => spec.instructions,
        };
        self.charge_mix(spec.class, instr)
    }

    /// True when working sets of `code_pages`/`data_pages` are fully
    /// TLB-resident, i.e. a touch would return zero misses and leave the
    /// TLB state unchanged.
    pub fn tlb_covers(&self, code_pages: u32, data_pages: u32) -> bool {
        self.tlb.itlb.resident() >= code_pages && self.tlb.dtlb.resident() >= data_pages
    }

    /// Costs a hardware interrupt handler of `instructions`.
    pub fn interrupt(&mut self, instructions: u64) -> WorkPacket {
        let mut charge = self.charge_mix(MixClass::Kernel, instructions);
        charge.events.add(HwEvent::HardwareInterrupts, 1);
        // Interrupt handlers run on whatever address space is active and
        // touch a small kernel working set.
        self.add_tlb_touch(&mut charge, 3, 4);
        WorkPacket::from_charge(charge, WorkKind::Interrupt)
    }

    /// Costs non-interrupt kernel work of `instructions`.
    pub fn kernel_work(&mut self, instructions: u64, kind: WorkKind) -> WorkPacket {
        let mut charge = self.charge_mix(MixClass::Kernel, instructions);
        self.add_tlb_touch(&mut charge, 4, 6);
        WorkPacket::from_charge(charge, kind)
    }

    /// Costs a context switch between processes. On the Pentium this
    /// reloads CR3 and flushes both TLBs.
    pub fn context_switch(&mut self) -> WorkPacket {
        let charge = self.charge_mix(MixClass::Kernel, self.params.context_switch_instr);
        self.tlb.flush();
        WorkPacket::from_charge(charge, WorkKind::ContextSwitch)
    }

    /// Costs one Win32 API service of `service_instr` GUI-side instructions
    /// touching `(code, data)` service pages, including the architectural
    /// crossing.
    pub fn api_service(&mut self, service_instr: u64, service_pages: (u32, u32)) -> Packets {
        let mut packets = Packets::EMPTY;
        self.reads |= SweptParam::CrossingInstr.bit();
        let service_instr = self.gui_instr(service_instr);
        match self.params.win32 {
            Win32Arch::UserServer {
                server_code_pages,
                server_data_pages,
            } => {
                // Client → server LPC: syscall, transport, CR3 switch.
                let send = self.charge_mix(
                    MixClass::Kernel,
                    self.params.syscall_instr + self.params.crossing_instr,
                );
                packets.push(WorkPacket::from_charge(send, WorkKind::Api));
                self.tlb.flush();
                // Server-side service: refill the server working set.
                let mut work = self.charge_mix(MixClass::Gui, service_instr);
                self.add_tlb_touch(
                    &mut work,
                    server_code_pages + service_pages.0,
                    server_data_pages + service_pages.1,
                );
                packets.push(WorkPacket::from_charge(work, WorkKind::Api));
                // Server → client return: another CR3 switch; the client
                // refills its own working set as it resumes.
                self.tlb.flush();
                let ret = self.charge_mix(MixClass::Kernel, self.params.crossing_instr / 2);
                packets.push(WorkPacket::from_charge(ret, WorkKind::Api));
            }
            Win32Arch::KernelMode {
                extra_itlb,
                extra_dtlb,
            } => {
                let mut entry = self.charge_mix(
                    MixClass::Kernel,
                    self.params.syscall_instr + self.params.crossing_instr,
                );
                self.add_tlb_misses(&mut entry, extra_itlb as u64, extra_dtlb as u64);
                packets.push(WorkPacket::from_charge(entry, WorkKind::Api));
                let mut work = self.charge_mix(MixClass::Gui, service_instr);
                self.add_tlb_touch(&mut work, service_pages.0, service_pages.1);
                packets.push(WorkPacket::from_charge(work, WorkKind::Api));
            }
            Win32Arch::Thunk16 {
                extra_itlb,
                extra_dtlb,
            } => {
                // The thunk transport itself runs in 16-bit-style code.
                let mut entry = self.charge_mix(
                    MixClass::Gui,
                    self.params.syscall_instr + self.params.crossing_instr,
                );
                self.add_tlb_misses(&mut entry, extra_itlb as u64, extra_dtlb as u64);
                packets.push(WorkPacket::from_charge(entry, WorkKind::Api));
                let mut work = self.charge_mix(MixClass::Gui, service_instr);
                self.add_tlb_touch(&mut work, service_pages.0, service_pages.1);
                packets.push(WorkPacket::from_charge(work, WorkKind::Api));
            }
        }
        packets
    }

    /// Costs a GDI batch flush of `ops` accumulated drawing operations.
    /// Drawing uses the personality's GDI path factor, not the USER-chrome
    /// factor — the two differ on Windows 95 (compact 16-bit GDI vs.
    /// thunk-heavy USER).
    pub fn gdi_flush(&mut self, ops: u32) -> Packets {
        self.reads |= SweptParam::GdiPathMilli.bit() | SweptParam::GuiPathMilli.bit();
        let service = self.params.gdi_op_instr * ops as u64 * self.params.gdi_path_milli
            / self.params.gui_path_milli.max(1);
        // Drawing touches framebuffer/bitmap data proportional to batch size.
        let data_pages = 8 + (ops / 2).min(48);
        self.api_service(service, (10, data_pages))
    }

    /// Costs the client-side buffering of GDI operations (no crossing).
    pub fn gdi_buffer(&mut self, ops: u32) -> WorkPacket {
        let charge = self.charge_mix(MixClass::App, 150 * ops as u64);
        WorkPacket::from_charge(charge, WorkKind::App)
    }

    /// Costs the CPU side of a read: cache-hit copies plus page-in
    /// bookkeeping for missed blocks.
    pub fn read_cpu(&mut self, hit_blocks: u64, miss_blocks: u64) -> WorkPacket {
        let instr = self.params.syscall_instr
            + hit_blocks * self.params.copy_instr_per_block
            + miss_blocks * self.params.page_in_instr_per_block;
        let mut charge = self.charge_mix(MixClass::Kernel, instr);
        // Copies touch the destination buffer.
        let touched = ((hit_blocks + miss_blocks).min(32)) as u32;
        self.add_tlb_touch(&mut charge, 4, 6 + touched);
        WorkPacket::from_charge(charge, WorkKind::Io)
    }

    /// Costs the CPU side of a write-through write of `blocks` blocks.
    pub fn write_cpu(&mut self, blocks: u64) -> WorkPacket {
        let base = self.params.syscall_instr
            + blocks * (self.params.copy_instr_per_block + self.params.page_in_instr_per_block);
        self.reads |= SweptParam::WriteOverheadMilli.bit();
        let instr = base * self.params.write_overhead_milli / 1_000;
        let mut charge = self.charge_mix(MixClass::Kernel, instr);
        let touched = (blocks.min(32)) as u32;
        self.add_tlb_touch(&mut charge, 4, 6 + touched);
        WorkPacket::from_charge(charge, WorkKind::Io)
    }

    /// Costs a slice of busy-wait spin (quirk states), `cycles` long.
    pub fn spin(&mut self, cycles: u64) -> WorkPacket {
        // Spin loops are tight 16-bit polling code on Windows 95; the exact
        // mix is irrelevant to latency (it is pure occupancy), so charge the
        // kernel mix's event rates scaled to the requested cycles.
        let mix = self.params.kernel_mix;
        let instr = cycles * 1_000 / mix.cpi_milli.max(1);
        let charge = self.acc_kernel.charge(&mix, instr);
        WorkPacket {
            cycles,
            events: charge.events,
            kind: WorkKind::Spin,
        }
    }

    /// Direct TLB access for tests and the kernel.
    pub fn tlb_mut(&mut self) -> &mut TlbPair {
        &mut self.tlb
    }

    /// Captures the engine's mutable state (TLB occupancy plus the
    /// fractional-event remainders of every mix accumulator), so a
    /// trial-costed packet can be rolled back with
    /// [`CostEngine::restore`]. Used by the kernel's idle fast-forward,
    /// which must not perturb the accumulators when the next iteration
    /// turns out not to fit before the event horizon.
    pub fn snapshot(&self) -> CostSnapshot {
        CostSnapshot {
            tlb: self.tlb,
            acc_app: self.acc_app.clone(),
            acc_gui: self.acc_gui.clone(),
            acc_kernel: self.acc_kernel.clone(),
        }
    }

    /// Restores state captured by [`CostEngine::snapshot`].
    pub fn restore(&mut self, snap: CostSnapshot) {
        self.tlb = snap.tlb;
        self.acc_app = snap.acc_app;
        self.acc_gui = snap.acc_gui;
        self.acc_kernel = snap.acc_kernel;
    }
}

/// Rollback state for [`CostEngine::snapshot`]/[`CostEngine::restore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostSnapshot {
    tlb: TlbPair,
    acc_app: MixAccumulator,
    acc_gui: MixAccumulator,
    acc_kernel: MixAccumulator,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::OsProfile;

    fn engine(p: OsProfile) -> CostEngine {
        CostEngine::new(p.params())
    }

    fn total(packets: &[WorkPacket]) -> (u64, EventCounts) {
        let mut cycles = 0;
        let mut events = EventCounts::ZERO;
        for p in packets {
            cycles += p.cycles;
            events.accumulate(&p.events);
        }
        (cycles, events)
    }

    #[test]
    fn nt351_service_flushes_and_refills() {
        let mut e = engine(OsProfile::Nt351);
        // Warm the TLB as an application would.
        let warm = e.compute(&ComputeSpec::app(100_000));
        assert!(warm.events.tlb_misses() > 0);
        // A service call flushes; misses appear in the service packets.
        let (_, ev) = total(&e.api_service(10_000, (8, 8)));
        assert!(
            ev.tlb_misses() >= 60,
            "user-server crossing should refill a large working set, saw {}",
            ev.tlb_misses()
        );
        // And the application refills afterwards.
        let after = e.compute(&ComputeSpec::app(100_000));
        assert!(after.events.tlb_misses() >= 60);
    }

    #[test]
    fn nt40_service_is_cheaper_and_does_not_flush() {
        let mut e40 = engine(OsProfile::Nt40);
        let mut e351 = engine(OsProfile::Nt351);
        // Warm both.
        e40.compute(&ComputeSpec::app(100_000));
        e351.compute(&ComputeSpec::app(100_000));
        let (c40, ev40) = total(&e40.api_service(10_000, (8, 8)));
        let (c351, ev351) = total(&e351.api_service(10_000, (8, 8)));
        assert!(c40 < c351, "NT 4.0 service {c40} !< NT 3.51 {c351}");
        assert!(ev40.tlb_misses() < ev351.tlb_misses());
        // NT 4.0 app work after the call stays warm.
        let after = e40.compute(&ComputeSpec::app(100_000));
        let steady = HwMix::FLAT32.events_for(100_000).tlb_misses();
        assert!(
            after.events.tlb_misses() <= steady + 5,
            "NT 4.0 call should not flush the app working set"
        );
    }

    #[test]
    fn win95_service_generates_segment_loads() {
        let mut e = engine(OsProfile::Win95);
        let (_, ev) = total(&e.api_service(10_000, (8, 8)));
        assert!(
            ev.get(HwEvent::SegmentLoads) > 100,
            "16-bit thunked service must load segments, saw {}",
            ev.get(HwEvent::SegmentLoads)
        );
        assert!(ev.get(HwEvent::UnalignedAccesses) > 100);
    }

    #[test]
    fn gui_path_factor_scales_compute() {
        let mut e40 = engine(OsProfile::Nt40);
        let mut e351 = engine(OsProfile::Nt351);
        // Warm TLBs so the comparison is pure path length.
        for e in [&mut e40, &mut e351] {
            e.compute(&ComputeSpec::gui(100_000));
        }
        let c40 = e40.compute(&ComputeSpec::gui(1_000_000)).cycles;
        let c351 = e351.compute(&ComputeSpec::gui(1_000_000)).cycles;
        let ratio = c351 as f64 / c40 as f64;
        assert!(
            (1.25..=1.35).contains(&ratio),
            "NT 3.51 GUI path factor should be ~1.3×, got {ratio:.3}"
        );
    }

    #[test]
    fn context_switch_flushes_tlb() {
        let mut e = engine(OsProfile::Nt40);
        e.compute(&ComputeSpec::app(100_000));
        let warm = e.compute(&ComputeSpec::app(10_000));
        assert_eq!(
            warm.events.tlb_misses(),
            HwMix::FLAT32.events_for(10_000).tlb_misses()
        );
        e.context_switch();
        let cold = e.compute(&ComputeSpec::app(10_000));
        assert!(cold.events.tlb_misses() > warm.events.tlb_misses() + 50);
    }

    #[test]
    fn interrupt_counts_hardware_interrupt() {
        let mut e = engine(OsProfile::Nt40);
        let p = e.interrupt(250);
        assert_eq!(p.events.get(HwEvent::HardwareInterrupts), 1);
        assert_eq!(p.kind, WorkKind::Interrupt);
    }

    #[test]
    fn write_overhead_applies() {
        let mut e40 = engine(OsProfile::Nt40);
        let mut e351 = engine(OsProfile::Nt351);
        let c40 = e40.write_cpu(100).cycles;
        let c351 = e351.write_cpu(100).cycles;
        assert!(
            c40 > c351,
            "NT 4.0 write path must cost more (Table 1 Save)"
        );
    }

    #[test]
    fn spin_charges_requested_cycles() {
        let mut e = engine(OsProfile::Win95);
        let p = e.spin(12_345);
        assert_eq!(p.cycles, 12_345);
        assert_eq!(p.kind, WorkKind::Spin);
    }

    #[test]
    fn snapshot_restore_undoes_trial_compute() {
        let mut e = engine(OsProfile::Nt40);
        // Put the accumulators mid-phase so remainders are non-trivial.
        e.compute(&ComputeSpec::app(12_345));
        let snap = e.snapshot();
        let trial = e.compute(&ComputeSpec::app(777));
        e.restore(snap);
        let replay = e.compute(&ComputeSpec::app(777));
        assert_eq!(trial.cycles, replay.cycles);
        assert_eq!(trial.events, replay.events);
    }

    #[test]
    fn gdi_flush_scales_with_ops() {
        let mut e = engine(OsProfile::Nt40);
        let (c1, _) = total(&e.gdi_flush(1));
        let (c16, _) = total(&e.gdi_flush(16));
        assert!(c16 > c1 * 4, "16-op flush should cost much more than 1-op");
    }
}
