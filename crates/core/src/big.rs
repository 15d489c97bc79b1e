//! The out-of-order big core.
//!
//! A simplified O3 model: wide fetch through a line buffer, functional
//! execute-at-dispatch, a reorder buffer with producer-seq renaming,
//! per-class functional-unit issue slots, a load/store queue with
//! line-granularity store→load ordering, and in-order commit.
//!
//! Vector instructions occupy a ROB slot and are dispatched to the
//! attached [`VectorEngine`] only once they reach the ROB head (paper
//! section III-A). Instructions that do not write a scalar register commit
//! immediately after dispatch; scalar-writing ones block commit until the
//! engine responds. `vmfence` blocks at the head until all older scalar
//! memory operations have retired *and* the engine reports its memory
//! pipeline drained (section III-B).
//!
//! Scheduling is event-driven. Besides the ROB the core keeps four short
//! lists derived from it (see `Sched`): the `Waiting` entries, the
//! `Executing` entries with their completion cycles, the loads in flight
//! by memory id, and the line of every scalar store still in the ROB.
//! Issue, the completion sweep, memory responses, the store→load ordering
//! check and the skip planner's [`BigCore::quiescence`] walk these lists
//! instead of the whole ROB: on average the ROB holds tens of entries, of
//! which a handful wait and at most a few execute. The lists are updated
//! at dispatch, issue, completion, memory response and commit; they are
//! not checkpointed but rebuilt from the ROB on restore, and debug builds
//! check them against a fresh rebuild after every tick.

use crate::fetch::FetchUnit;
use crate::types::{CoreStats, Quiescence, StallKind, VecCmd, VectorEngine};
use bvl_isa::asm::Program;
use bvl_isa::exec::{ExecError, StepInfo};
use bvl_isa::instr::Instr;
use bvl_isa::meta::FuClass;
use bvl_isa::predecode::{DestReg, PreDecoded, SrcReg};
use bvl_isa::reg::NUM_REGS;
use bvl_isa::Machine;
use bvl_mem::{AccessKind, MemHierarchy, MemReq, PortId, SharedMem};
use bvl_snap::{snap_struct, Snap, SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;
use std::sync::Arc;

/// Big-core configuration (paper Table II class: 4-wide OoO).
#[derive(Clone, Copy, Debug)]
pub struct BigParams {
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: u32,
    /// Instructions issued to FUs per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Redirect penalty on mispredicted branches, cycles.
    pub branch_penalty: u64,
    /// Integer ALU issue slots per cycle.
    pub fu_alu: u32,
    /// Multiply/divide units (unpipelined).
    pub fu_muldiv: u32,
    /// FP issue slots per cycle (pipelined).
    pub fu_fpu: u32,
    /// Memory (L1D) issue slots per cycle.
    pub fu_mem: u32,
    /// Outstanding stores tolerated past commit.
    pub store_buffer: usize,
    /// Outstanding loads.
    pub load_queue: usize,
}

impl Default for BigParams {
    fn default() -> Self {
        BigParams {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 128,
            branch_penalty: 8,
            fu_alu: 3,
            fu_muldiv: 1,
            fu_fpu: 2,
            fu_mem: 2,
            store_buffer: 8,
            load_queue: 8,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EState {
    /// Waiting for sources / an FU.
    Waiting,
    /// Executing; result ready at the contained cycle.
    Executing(u64),
    /// Load in flight; completed by the memory response with this id.
    WaitMem(u64),
    /// Vector instruction not yet dispatched to the engine.
    WaitVector,
    /// Vector instruction dispatched; awaiting a scalar response.
    WaitVectorResult,
    /// `vmfence` waiting for drain conditions.
    WaitFence,
    /// Result ready; eligible to commit in order.
    Done,
}

/// Producer sequence numbers of a ROB entry's sources (renaming snapshot
/// taken at dispatch), stored inline — an instruction reads at most three
/// scalar registers, so dispatch stays allocation-free.
#[derive(Clone, Copy, Debug, Default)]
struct Deps {
    seqs: [u64; 3],
    n: u8,
}

impl Deps {
    fn push(&mut self, seq: u64) {
        self.seqs[self.n as usize] = seq;
        self.n += 1;
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.seqs[..self.n as usize].iter().copied()
    }
}

#[derive(Debug)]
struct RobEntry {
    seq: u64,
    info: StepInfo,
    state: EState,
    /// Store issues its memory request at commit.
    is_store: bool,
    deps: Deps,
}

/// The scheduler's view of the ROB: every entry the issue stage, the
/// completion sweep or a memory response can act on, so no per-cycle stage
/// walks the whole ROB. Each list is derived state — [`Sched::rebuild`]
/// recomputes it from the ROB alone — and entries are ROB seqs, found at
/// ROB index `seq - front.seq` since seqs are contiguous.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Sched {
    /// Seqs of the `Waiting` entries, oldest first (the issue order).
    waiting: Vec<u64>,
    /// `(done, seq)` of the `Executing` entries, in issue order.
    executing: Vec<(u64, u64)>,
    /// `(mem id, seq)` of the loads in flight (`WaitMem`); at most
    /// `load_queue` of them.
    loads: Vec<(u64, u64)>,
    /// `(seq, line address)` of the scalar stores in the ROB, oldest first:
    /// a load may not issue past an older store to its line.
    store_lines: VecDeque<(u64, u64)>,
}

impl Sched {
    /// Recomputes every list from `rob`, in ROB order.
    fn rebuild(rob: &VecDeque<RobEntry>, line_mask: u64) -> Sched {
        let mut s = Sched::default();
        for e in rob {
            match e.state {
                EState::Waiting => s.waiting.push(e.seq),
                EState::Executing(done) => s.executing.push((done, e.seq)),
                EState::WaitMem(id) => s.loads.push((id, e.seq)),
                _ => {}
            }
            if e.is_store {
                s.store_lines
                    .push_back((e.seq, e.info.mem[0].addr & line_mask));
            }
        }
        s
    }
}

/// Issue slots left in the current cycle.
struct Slots {
    alu: u32,
    fpu: u32,
    mem: u32,
    issued: u32,
}

/// The out-of-order big core timing model.
pub struct BigCore {
    params: BigParams,
    machine: Machine<SharedMem>,
    program: Arc<Program>,
    pre: Arc<PreDecoded>,
    line_bytes: u64,
    fetch: FetchUnit,
    rob: VecDeque<RobEntry>,
    next_seq: u64,
    /// Latest in-flight producer of each register (`seq + 1`; 0 = none) —
    /// the rename map, snapshotted into each dispatched entry's [`Deps`].
    x_producer: [u64; NUM_REGS],
    f_producer: [u64; NUM_REGS],
    muldiv_busy_until: u64,
    /// Ids of committed stores awaiting their memory response, ascending
    /// (ids are allocated in commit order); at most `store_buffer`.
    outstanding_stores: Vec<u64>,
    /// Lists derived from the ROB (not checkpointed).
    sched: Sched,
    next_mem_id: u64,
    stats: CoreStats,
    halted_fetch: bool,
    halted: bool,
    stall_dispatch_until: u64,
}

impl std::fmt::Debug for BigCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BigCore")
            .field("rob", &self.rob.len())
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl BigCore {
    /// Creates the big core executing `program`. `vlen_bits` must match
    /// the attached vector engine's hardware vector length (64 if none).
    pub fn new(
        mem: SharedMem,
        program: Arc<Program>,
        text_base: u64,
        line_bytes: u64,
        vlen_bits: u32,
        params: BigParams,
    ) -> Self {
        BigCore {
            params,
            machine: Machine::new(mem, vlen_bits),
            pre: program.predecoded(),
            line_bytes,
            program,
            fetch: FetchUnit::new(PortId::BigFetch, text_base, line_bytes),
            rob: VecDeque::new(),
            next_seq: 0,
            x_producer: [0; NUM_REGS],
            f_producer: [0; NUM_REGS],
            muldiv_busy_until: 0,
            outstanding_stores: Vec::new(),
            sched: Sched::default(),
            next_mem_id: 0,
            stats: CoreStats::default(),
            // Idle until assigned work (matches the little core).
            halted_fetch: true,
            halted: true,
            stall_dispatch_until: 0,
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Fetch groups delivered (L1I reads; Figure 5's quantity).
    pub fn fetch_groups(&self) -> u64 {
        self.fetch.fetch_groups
    }

    /// The golden machine (argument setup / result inspection).
    pub fn machine_mut(&mut self) -> &mut Machine<SharedMem> {
        &mut self.machine
    }

    /// Borrow of the golden machine.
    pub fn machine(&self) -> &Machine<SharedMem> {
        &self.machine
    }

    /// Snapshot of the core's final architectural state for differential
    /// comparison. Only meaningful once [`BigCore::done`] — while the
    /// pipeline is in flight the golden machine runs *ahead* of
    /// architectural commit (execute-at-dispatch).
    pub fn arch_snapshot(&self) -> bvl_isa::exec::ArchSnapshot {
        self.machine.snapshot()
    }

    /// Starts execution at `pc`.
    pub fn assign(&mut self, pc: u32) {
        self.machine.set_pc(pc);
        self.halted = false;
        self.halted_fetch = false;
    }

    /// True when the program has halted and the pipeline drained (vector
    /// engine drain is the system's responsibility).
    pub fn done(&self) -> bool {
        self.halted && self.rob.is_empty() && self.outstanding_stores.is_empty()
    }

    /// Advances one cycle. `engine` is the attached vector engine, if any.
    ///
    /// # Panics
    ///
    /// Panics if the program escapes its bounds without halting, or if a
    /// vector instruction appears with no engine attached.
    pub fn tick(
        &mut self,
        now: u64,
        hier: &mut MemHierarchy,
        mut engine: Option<&mut dyn VectorEngine>,
    ) {
        self.drain_memory(now, hier);
        if let Some(e) = engine.as_deref_mut() {
            while let Some(seq) = e.pop_scalar_done() {
                if let Some(idx) = self.rob_index(seq) {
                    let entry = &mut self.rob[idx];
                    debug_assert_eq!(entry.state, EState::WaitVectorResult);
                    entry.state = EState::Done;
                }
            }
        }
        self.sweep_executing(now);
        let committed = self.commit(now, hier, engine.as_deref_mut());
        self.issue(now, hier);
        self.dispatch(now, hier, engine);
        #[cfg(debug_assertions)]
        self.check_sched();

        if self.halted {
            return;
        }
        if committed > 0 {
            self.stats.account(StallKind::Busy);
        } else {
            let kind = match self.rob.front().map(|e| e.state) {
                Some(EState::WaitMem(_)) => StallKind::RawMem,
                Some(EState::WaitVector) | Some(EState::WaitVectorResult) => StallKind::Xelem,
                Some(EState::WaitFence) => StallKind::Misc,
                Some(_) => StallKind::Struct,
                None => StallKind::Misc,
            };
            self.stats.account(kind);
        }
    }

    fn drain_memory(&mut self, _now: u64, hier: &mut MemHierarchy) {
        self.fetch.drain_responses(hier);
        while let Some(resp) = hier.pop_response(PortId::BigData) {
            if resp.is_store {
                let pos = self.outstanding_stores.binary_search(&resp.id);
                debug_assert!(pos.is_ok(), "store response {} is unknown", resp.id);
                if let Ok(pos) = pos {
                    self.outstanding_stores.remove(pos);
                }
            } else {
                let pos = self.sched.loads.iter().position(|&(id, _)| id == resp.id);
                debug_assert!(pos.is_some(), "load response {} is unknown", resp.id);
                if let Some(pos) = pos {
                    let (_, seq) = self.sched.loads.swap_remove(pos);
                    let idx = self.rob_index(seq).expect("in-flight load is in the ROB");
                    self.rob[idx].state = EState::Done;
                }
            }
        }
    }

    fn sweep_executing(&mut self, now: u64) {
        let Some(base) = self.rob.front().map(|e| e.seq) else {
            return;
        };
        let rob = &mut self.rob;
        self.sched.executing.retain(|&(done, seq)| {
            if done > now {
                return true;
            }
            rob[(seq - base) as usize].state = EState::Done;
            false
        });
    }

    /// ROB index of the entry with sequence number `seq`, if it is in the
    /// ROB. Seqs are contiguous, so this is an offset from the head.
    fn rob_index(&self, seq: u64) -> Option<usize> {
        let idx = usize::try_from(seq.checked_sub(self.rob.front()?.seq)?).ok()?;
        (idx < self.rob.len()).then_some(idx)
    }

    fn line_mask(&self) -> u64 {
        !(self.line_bytes - 1)
    }

    /// True if a scalar store older than `seq` writes the line of `addr`
    /// (store→load ordering at line granularity).
    fn older_store_to_line(&self, seq: u64, addr: u64) -> bool {
        let line = addr & self.line_mask();
        self.sched
            .store_lines
            .iter()
            .take_while(|&&(s, _)| s < seq)
            .any(|&(_, l)| l == line)
    }

    /// Debug-build oracle: the scheduler lists equal a fresh rebuild from
    /// the ROB (up to the order of the issue-ordered lists), and the store
    /// buffer is ascending and within its size.
    #[cfg(debug_assertions)]
    fn check_sched(&self) {
        let mut live = self.sched.clone();
        live.executing.sort_unstable_by_key(|&(_, seq)| seq);
        live.loads.sort_unstable_by_key(|&(_, seq)| seq);
        assert_eq!(
            live,
            Sched::rebuild(&self.rob, self.line_mask()),
            "big-core scheduler lists diverged from the ROB"
        );
        assert!(self.outstanding_stores.len() <= self.params.store_buffer);
        assert!(self.outstanding_stores.windows(2).all(|w| w[0] < w[1]));
    }

    /// True once producer `seq` has its result available (committed, or in
    /// the ROB with state `Done`).
    fn dep_completed(&self, seq: u64) -> bool {
        self.rob_index(seq)
            .is_none_or(|idx| self.rob[idx].state == EState::Done)
    }

    fn commit<E: VectorEngine + ?Sized>(
        &mut self,
        now: u64,
        hier: &mut MemHierarchy,
        mut engine: Option<&mut E>,
    ) -> u32 {
        let mut committed = 0;
        while committed < self.params.commit_width {
            let Some(head) = self.rob.front_mut() else {
                break;
            };
            match head.state {
                EState::WaitVector => {
                    let Some(e) = engine.as_deref_mut() else {
                        panic!("vector instruction with no vector engine attached");
                    };
                    if head.info.instr == Instr::VmFence {
                        head.state = EState::WaitFence;
                        continue;
                    }
                    if !e.can_accept() {
                        break;
                    }
                    let needs_resp = head.info.instr.vector_writes_scalar();
                    bvl_obs::trace::emit(now, "big", 0, "vec_dispatch", head.seq);
                    e.dispatch(VecCmd {
                        seq: head.seq,
                        instr: head.info.instr,
                        vl: head.info.vl,
                        sew: head.info.sew,
                        mem: head.info.mem.clone(),
                        needs_scalar_response: needs_resp,
                    });
                    if needs_resp {
                        head.state = EState::WaitVectorResult;
                        break;
                    }
                    head.state = EState::Done;
                    continue;
                }
                EState::WaitFence => {
                    let scalar_drained = self.outstanding_stores.is_empty();
                    let engine_drained = engine.as_deref().is_none_or(|e| e.mem_drained());
                    if scalar_drained && engine_drained {
                        self.rob.front_mut().expect("head exists").state = EState::Done;
                        continue;
                    }
                    break;
                }
                EState::Done => {
                    // Stores issue their memory request at commit.
                    if head.is_store {
                        if self.outstanding_stores.len() >= self.params.store_buffer {
                            break;
                        }
                        let acc = head.info.mem[0];
                        self.next_mem_id += 1;
                        let req = MemReq {
                            id: self.next_mem_id,
                            addr: acc.addr,
                            size: acc.size,
                            is_store: true,
                            kind: AccessKind::Data,
                            port: PortId::BigData,
                        };
                        if !hier.request(req) {
                            break;
                        }
                        self.outstanding_stores.push(self.next_mem_id);
                        let line = self.sched.store_lines.pop_front();
                        debug_assert_eq!(line.map(|(seq, _)| seq), Some(head.seq));
                    }
                    let entry = self.rob.pop_front().expect("head exists");
                    if entry.info.halted {
                        self.halted = true;
                        bvl_obs::trace::emit(now, "big", 0, "halt", entry.seq);
                    }
                    self.stats.retired += 1;
                    committed += 1;
                }
                _ => break,
            }
        }
        committed
    }

    /// Issues `Waiting` entries oldest first, up to the issue width. Only
    /// stores turn `Done` during a pass and no entry depends on a store, so
    /// no entry's readiness changes mid-pass.
    fn issue(&mut self, now: u64, hier: &mut MemHierarchy) {
        debug_assert_eq!(hier.line_bytes(), self.line_bytes);
        let mut slots = Slots {
            alu: self.params.fu_alu,
            fpu: self.params.fu_fpu,
            mem: self.params.fu_mem,
            issued: 0,
        };
        let mut waiting = std::mem::take(&mut self.sched.waiting);
        waiting.retain(|&seq| {
            slots.issued >= self.params.issue_width || !self.try_issue(seq, now, hier, &mut slots)
        });
        self.sched.waiting = waiting;
    }

    /// Tries to issue the `Waiting` entry `seq`; true once it has left
    /// `Waiting`.
    fn try_issue(
        &mut self,
        seq: u64,
        now: u64,
        hier: &mut MemHierarchy,
        slots: &mut Slots,
    ) -> bool {
        let idx = self.rob_index(seq).expect("waiting entry is in the ROB");
        let im = *self.pre.at(self.rob[idx].info.pc);
        if im.is_vector {
            // Vector instructions wait for the ROB head.
            return false;
        }
        // Sources ready? (All producer seqs completed.)
        if self.rob[idx].deps.iter().any(|d| !self.dep_completed(d)) {
            return false;
        }
        let meta = im.meta;
        let state = match meta.fu {
            FuClass::Alu | FuClass::Branch | FuClass::None => {
                if slots.alu == 0 {
                    return false;
                }
                slots.alu -= 1;
                EState::Executing(now + u64::from(meta.latency))
            }
            FuClass::MulDiv => {
                if self.muldiv_busy_until > now {
                    return false;
                }
                self.muldiv_busy_until = now + u64::from(meta.latency);
                EState::Executing(now + u64::from(meta.latency))
            }
            FuClass::Fpu => {
                if slots.fpu == 0 {
                    return false;
                }
                slots.fpu -= 1;
                EState::Executing(now + u64::from(meta.latency))
            }
            FuClass::Mem => {
                if self.rob[idx].is_store {
                    // Stores "execute" by having their sources ready; the
                    // request goes out at commit. Not an issue slot.
                    self.rob[idx].state = EState::Done;
                    return true;
                }
                if slots.mem == 0 || self.sched.loads.len() >= self.params.load_queue {
                    return false;
                }
                let acc = self.rob[idx].info.mem[0];
                if self.older_store_to_line(seq, acc.addr) {
                    return false;
                }
                self.next_mem_id += 1;
                let req = MemReq {
                    id: self.next_mem_id,
                    addr: acc.addr,
                    size: acc.size,
                    is_store: false,
                    kind: AccessKind::Data,
                    port: PortId::BigData,
                };
                if !hier.request(req) {
                    slots.mem = 0; // port saturated this cycle
                    return false;
                }
                slots.mem -= 1;
                self.sched.loads.push((self.next_mem_id, seq));
                EState::WaitMem(self.next_mem_id)
            }
            FuClass::Vector => unreachable!("vector handled above"),
        };
        if let EState::Executing(done) = state {
            self.sched.executing.push((done, seq));
        }
        self.rob[idx].state = state;
        slots.issued += 1;
        true
    }

    fn dispatch<E: VectorEngine + ?Sized>(
        &mut self,
        now: u64,
        hier: &mut MemHierarchy,
        engine: Option<&mut E>,
    ) {
        if self.halted_fetch || now < self.stall_dispatch_until {
            return;
        }
        let _ = engine;
        for _ in 0..self.params.fetch_width {
            if self.rob.len() >= self.params.rob_size {
                break;
            }
            let pc = self.machine.pc();
            if !self.fetch.available(now, pc, hier) {
                break;
            }
            self.fetch.deliver();
            self.stats.fetch_groups += 1;
            let im = *self.pre.at(pc);
            let info = match self.machine.step(&self.program) {
                Ok(info) => info,
                Err(ExecError::PcOutOfRange(pc)) => {
                    panic!("big core escaped program at pc {pc}")
                }
                Err(e) => panic!("big core exec error: {e}"),
            };
            let is_store = !info.mem.is_empty() && info.mem[0].is_store && !info.instr.is_vector();
            let is_vector = info.instr.is_vector();
            let halted = info.halted;
            let mut redirect = false;
            if let Instr::Branch { target, .. } = info.instr {
                self.stats.branches += 1;
                let predicted_taken = target <= info.pc;
                let actually_taken = info.taken.is_some();
                if predicted_taken != actually_taken {
                    self.stats.mispredicts += 1;
                    self.fetch.redirect(now, self.params.branch_penalty);
                    self.stall_dispatch_until = now + self.params.branch_penalty;
                    redirect = true;
                }
            }
            // Rename: snapshot the producers of this entry's sources
            // *before* updating the map with its own destination, so an
            // instruction reading and writing the same register depends on
            // the older producer, not on itself.
            let mut deps = Deps::default();
            for &s in im.srcs() {
                let enc = match s {
                    SrcReg::X(r) => self.x_producer[r as usize],
                    SrcReg::F(r) => self.f_producer[r as usize],
                };
                if enc != 0 {
                    deps.push(enc - 1);
                }
            }
            match im.dest {
                DestReg::X(0) | DestReg::None => {}
                DestReg::X(r) => self.x_producer[r as usize] = self.next_seq + 1,
                DestReg::F(r) => self.f_producer[r as usize] = self.next_seq + 1,
            }
            let state = if is_vector {
                EState::WaitVector
            } else {
                self.sched.waiting.push(self.next_seq);
                EState::Waiting
            };
            if is_store {
                let line = info.mem[0].addr & self.line_mask();
                self.sched.store_lines.push_back((self.next_seq, line));
            }
            self.rob.push_back(RobEntry {
                seq: self.next_seq,
                info,
                state,
                is_store,
                deps,
            });
            self.next_seq += 1;
            if halted {
                self.halted_fetch = true;
                break;
            }
            if redirect {
                break;
            }
        }
    }

    /// Reports whether ticking this core before some future cycle can do
    /// anything beyond repeating one constant stall accounting.
    ///
    /// `engine_*` describe the attached engine as observed this cycle
    /// (pass `can_accept = false`, `scalar_pending = false`,
    /// `mem_drained = true` when no engine is attached). Callers must
    /// additionally check the hierarchy for pending responses on the big
    /// fetch/data ports: a quiescent core is woken by them.
    pub fn quiescence(
        &self,
        now: u64,
        engine_can_accept: bool,
        engine_scalar_pending: bool,
        engine_mem_drained: bool,
    ) -> Quiescence {
        if self.halted {
            // Drained pipeline; any in-flight stores complete externally.
            return Quiescence::Idle {
                until: None,
                account: None,
            };
        }
        if engine_scalar_pending {
            return Quiescence::Active; // pop_scalar_done completes an entry
        }
        let mut until: Option<u64> = None;
        let fold = |until: &mut Option<u64>, ev: u64| {
            *until = Some(until.map_or(ev, |u| u.min(ev)));
        };

        // Commit side: the head alone decides whether anything retires.
        if let Some(head) = self.rob.front() {
            match head.state {
                EState::Done => return Quiescence::Active,
                EState::WaitVector => {
                    if head.info.instr == Instr::VmFence {
                        // Converts to WaitFence on the next tick.
                        return Quiescence::Active;
                    }
                    if engine_can_accept {
                        return Quiescence::Active;
                    }
                }
                EState::WaitFence if self.outstanding_stores.is_empty() && engine_mem_drained => {
                    return Quiescence::Active;
                }
                _ => {}
            }
        }

        // Issue side: Executing completions are exact internal deadlines;
        // a Waiting entry with complete deps may act this cycle.
        for &(done, _) in &self.sched.executing {
            if done <= now {
                return Quiescence::Active;
            }
            fold(&mut until, done);
        }
        for &seq in &self.sched.waiting {
            let e = &self.rob[self.rob_index(seq).expect("waiting entry is in the ROB")];
            let im = self.pre.at(e.info.pc);
            if im.is_vector {
                continue; // dispatched from the head (commit side)
            }
            if e.deps.iter().any(|d| !self.dep_completed(d)) {
                continue; // wakes on a producer's event, folded above
            }
            match im.meta.fu {
                FuClass::MulDiv => {
                    if self.muldiv_busy_until <= now {
                        return Quiescence::Active;
                    }
                    fold(&mut until, self.muldiv_busy_until);
                }
                FuClass::Mem => {
                    if e.is_store {
                        return Quiescence::Active; // marks itself Done
                    }
                    if self.sched.loads.len() >= self.params.load_queue {
                        continue; // frees on an external response
                    }
                    if self.older_store_to_line(seq, e.info.mem[0].addr) {
                        continue; // clears at commit (head-driven)
                    }
                    return Quiescence::Active; // would request the L1D
                }
                // ALU/branch/FP slots refresh every cycle.
                _ => return Quiescence::Active,
            }
        }

        // Dispatch side.
        if !self.halted_fetch {
            if now < self.stall_dispatch_until {
                fold(&mut until, self.stall_dispatch_until);
            } else if self.rob.len() < self.params.rob_size {
                if self.fetch.has_line(self.machine.pc()) {
                    return Quiescence::Active; // would decode now
                }
                if !self.fetch.fetch_pending() {
                    return Quiescence::Active; // would issue the line fetch
                }
                // Else: waiting on the L1I response (external).
            }
            // A full ROB frees only at commit, which the head gates.
        }

        // A quiescent tick commits nothing and charges the head's state —
        // exactly the naive loop's `committed == 0` accounting.
        let account = Some(match self.rob.front().map(|e| e.state) {
            Some(EState::WaitMem(_)) => StallKind::RawMem,
            Some(EState::WaitVector) | Some(EState::WaitVectorResult) => StallKind::Xelem,
            Some(EState::WaitFence) => StallKind::Misc,
            Some(_) => StallKind::Struct,
            None => StallKind::Misc,
        });
        Quiescence::Idle { until, account }
    }

    /// Batch-accounts `cycles` skipped quiescent cycles. Callers must
    /// have observed an [`Quiescence::Idle`] with this `account` covering
    /// the whole window.
    pub fn skip_idle(&mut self, cycles: u64, account: Option<StallKind>) {
        if let Some(kind) = account {
            self.stats.account_many(kind, cycles);
        }
    }

    /// Appends the core's mutable state (machine, front-end, ROB, rename
    /// maps, LSQ tracking, stats) to a checkpoint. Configuration
    /// (`params`, program, ports) is not written — a restore target is
    /// built from the same [`BigCore::new`] arguments — and neither are
    /// the scheduler lists, which restore rebuilds from the ROB. The
    /// in-flight load count is written for the format's sake; it always
    /// equals the number of `WaitMem` entries.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.machine.save_state(w);
        self.fetch.save_state(w);
        self.rob.save(w);
        self.next_seq.save(w);
        self.x_producer.save(w);
        self.f_producer.save(w);
        self.muldiv_busy_until.save(w);
        self.outstanding_stores.save(w);
        self.sched.loads.len().save(w);
        self.next_mem_id.save(w);
        self.stats.save(w);
        self.halted_fetch.save(w);
        self.halted.save(w);
        self.stall_dispatch_until.save(w);
    }

    /// Restores state written by [`BigCore::save_state`].
    ///
    /// # Errors
    ///
    /// Fails with a [`SnapError`] on malformed input: a ROB larger than
    /// this core's configuration allows, with gaps in its seqs or with a
    /// store that has no access, a store buffer that is overfull or not
    /// ascending, or a load count that does not match the ROB.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let corrupt = |what: String| Err(SnapError::Corrupt { what });
        self.machine.restore_state(r)?;
        self.fetch.restore_state(r)?;
        let rob: VecDeque<RobEntry> = Snap::load(r)?;
        if rob.len() > self.params.rob_size {
            return corrupt(format!(
                "checkpoint ROB holds {} entries, core has {}",
                rob.len(),
                self.params.rob_size
            ));
        }
        if rob
            .iter()
            .zip(rob.iter().skip(1))
            .any(|(a, b)| a.seq.checked_add(1) != Some(b.seq))
        {
            return corrupt("checkpoint ROB seqs are not contiguous".into());
        }
        if rob.iter().any(|e| e.is_store && e.info.mem.is_empty()) {
            return corrupt("checkpoint ROB holds a store without an access".into());
        }
        self.sched = Sched::rebuild(&rob, self.line_mask());
        self.rob = rob;
        self.next_seq = Snap::load(r)?;
        self.x_producer = Snap::load(r)?;
        self.f_producer = Snap::load(r)?;
        self.muldiv_busy_until = Snap::load(r)?;
        let stores: Vec<u64> = Snap::load(r)?;
        if stores.len() > self.params.store_buffer || stores.windows(2).any(|w| w[0] >= w[1]) {
            return corrupt(format!(
                "checkpoint store buffer {stores:?} is not ascending within {} entries",
                self.params.store_buffer
            ));
        }
        self.outstanding_stores = stores;
        let loads: usize = Snap::load(r)?;
        if loads != self.sched.loads.len() {
            return corrupt(format!(
                "checkpoint counts {loads} loads in flight, its ROB {}",
                self.sched.loads.len()
            ));
        }
        self.next_mem_id = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        self.halted_fetch = Snap::load(r)?;
        self.halted = Snap::load(r)?;
        self.stall_dispatch_until = Snap::load(r)?;
        #[cfg(debug_assertions)]
        self.check_sched();
        Ok(())
    }
}

impl Snap for EState {
    fn save(&self, w: &mut SnapWriter) {
        match self {
            EState::Waiting => w.u8(0),
            EState::Executing(at) => {
                w.u8(1);
                at.save(w);
            }
            EState::WaitMem(id) => {
                w.u8(2);
                id.save(w);
            }
            EState::WaitVector => w.u8(3),
            EState::WaitVectorResult => w.u8(4),
            EState::WaitFence => w.u8(5),
            EState::Done => w.u8(6),
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => EState::Waiting,
            1 => EState::Executing(Snap::load(r)?),
            2 => EState::WaitMem(Snap::load(r)?),
            3 => EState::WaitVector,
            4 => EState::WaitVectorResult,
            5 => EState::WaitFence,
            6 => EState::Done,
            t => {
                return Err(SnapError::BadTag {
                    ty: "EState",
                    tag: u64::from(t),
                })
            }
        })
    }
}

snap_struct!(Deps { seqs, n });
snap_struct!(RobEntry {
    seq,
    info,
    state,
    is_store,
    deps,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::TEXT_BASE;
    use bvl_isa::asm::Assembler;
    use bvl_isa::reg::XReg;
    use bvl_mem::{HierConfig, SimMemory};

    fn x(i: u8) -> XReg {
        XReg::new(i)
    }

    fn run_big(a: &Assembler) -> (BigCore, u64) {
        let prog = Arc::new(a.assemble().unwrap());
        let shared = SharedMem::new(SimMemory::new(1 << 20));
        let mut hier = MemHierarchy::new(HierConfig::with_little(0));
        let mut core = BigCore::new(
            shared,
            prog,
            TEXT_BASE,
            hier.line_bytes(),
            64,
            BigParams::default(),
        );
        core.assign(0);
        for t in 0..2_000_000 {
            hier.tick(t);
            core.tick(t, &mut hier, None);
            if core.done() {
                return (core, t);
            }
        }
        panic!("big core did not finish");
    }

    #[test]
    fn independent_alu_ops_exploit_width() {
        let mut a = Assembler::new();
        for i in 1..=9 {
            a.li(x(i), i as i64);
        }
        // 12 independent adds.
        for _ in 0..4 {
            a.add(x(10), x(1), x(2));
            a.add(x(11), x(3), x(4));
            a.add(x(12), x(5), x(6));
        }
        a.halt();
        let (core, _) = run_big(&a);
        assert_eq!(core.stats().retired, 22);
        // Straight-line cold code is fetch-bound (every line misses to
        // DRAM); just sanity-check forward progress here. Warm-loop IPC is
        // asserted in `warm_loop_ipc_exceeds_one`.
        assert!(core.stats().ipc() > 0.05);
    }

    #[test]
    fn warm_loop_ipc_exceeds_one() {
        // A loop body of independent ALU ops that fits in one I-line: after
        // the first iteration everything is warm and superscalar issue
        // should push IPC above 1.
        let mut a = Assembler::new();
        a.li(x(1), 0);
        a.li(x(2), 200);
        a.label("loop");
        a.add(x(3), x(4), x(5));
        a.add(x(6), x(7), x(8));
        a.add(x(9), x(10), x(11));
        a.add(x(12), x(13), x(14));
        a.add(x(15), x(16), x(17));
        a.add(x(18), x(19), x(20));
        a.addi(x(1), x(1), 1);
        a.bne(x(1), x(2), "loop");
        a.halt();
        let (core, _) = run_big(&a);
        assert!(
            core.stats().ipc() > 1.0,
            "warm loop ipc = {}",
            core.stats().ipc()
        );
    }

    #[test]
    fn big_core_beats_little_on_ilp() {
        // Same independent-op program on both cores: big must finish in
        // fewer cycles thanks to superscalar issue.
        let mut a = Assembler::new();
        for i in 1..=6 {
            a.li(x(i), i as i64);
        }
        for _ in 0..32 {
            a.add(x(10), x(1), x(2));
            a.add(x(11), x(3), x(4));
            a.add(x(12), x(5), x(6));
        }
        a.halt();
        let (big, big_cycles) = run_big(&a);

        let prog = Arc::new(a.assemble().unwrap());
        let shared = SharedMem::new(SimMemory::new(1 << 20));
        let mut hier = MemHierarchy::new(HierConfig::with_little(1));
        let mut little = crate::little::LittleCore::new(
            0,
            shared,
            prog,
            TEXT_BASE,
            hier.line_bytes(),
            crate::little::LittleParams::default(),
        );
        little.assign(0);
        let mut little_cycles = 0;
        for t in 0..2_000_000 {
            hier.tick(t);
            little.tick(t, &mut hier);
            if little.done() {
                little_cycles = t;
                break;
            }
        }
        assert!(little_cycles > 0);
        assert!(
            big_cycles < little_cycles,
            "big {big_cycles} !< little {little_cycles}"
        );
        assert_eq!(big.stats().retired, little.stats().retired);
    }

    #[test]
    fn loads_and_stores_commit_in_order() {
        let mut a = Assembler::new();
        a.li(x(1), 0x2000);
        a.li(x(2), 5);
        a.sw(x(2), x(1), 0);
        a.lw(x(3), x(1), 0); // must see the store's value
        a.addi(x(4), x(3), 1);
        a.halt();
        let (core, _) = run_big(&a);
        assert_eq!(core.machine().xreg(x(4)), 6);
    }

    #[test]
    fn loop_with_mispredicts() {
        let mut a = Assembler::new();
        a.li(x(1), 0);
        a.li(x(2), 50);
        a.label("loop");
        a.addi(x(1), x(1), 1);
        a.bne(x(1), x(2), "loop");
        a.halt();
        let (core, _) = run_big(&a);
        assert_eq!(core.machine().xreg(x(1)), 50);
        assert_eq!(core.stats().branches, 50);
        assert_eq!(core.stats().mispredicts, 1); // exit only
    }

    #[test]
    fn quiescence_predicts_naive_ticks() {
        // Oracle for the event-skip contract (see LittleCore's twin test):
        // a claimed-quiescent tick with no external input due must retire
        // nothing and account exactly the predicted stall kind.
        let mut a = Assembler::new();
        a.li(x(1), 0x2000);
        a.lw(x(2), x(1), 0); // cold miss at the ROB head
        a.addi(x(3), x(2), 1);
        a.li(x(4), 900);
        a.li(x(5), 11);
        a.div(x(6), x(4), x(5));
        a.div(x(7), x(6), x(5)); // serialized divides: muldiv windows
        a.sw(x(7), x(1), 8);
        a.halt();
        let prog = Arc::new(a.assemble().unwrap());
        let shared = SharedMem::new(SimMemory::new(1 << 20));
        let mut hier = MemHierarchy::new(HierConfig::with_little(0));
        let mut core = BigCore::new(
            shared,
            prog,
            TEXT_BASE,
            hier.line_bytes(),
            64,
            BigParams::default(),
        );
        core.assign(0);
        let mut checked = 0u64;
        for t in 0..2_000_000u64 {
            let q = core.quiescence(t, false, false, true);
            let external = hier.next_event(t).is_some_and(|e| e <= t)
                || hier.response_pending(PortId::BigFetch)
                || hier.response_pending(PortId::BigData);
            hier.tick(t);
            let before = *core.stats();
            core.tick(t, &mut hier, None);
            if !external {
                if let Quiescence::Idle { until, account } = q {
                    if until.is_none_or(|u| t < u) {
                        checked += 1;
                        let mut expect = before;
                        if let Some(kind) = account {
                            expect.account(kind);
                        }
                        assert_eq!(*core.stats(), expect, "t={t} q={q:?}");
                    }
                }
            }
            if core.done() {
                assert!(checked > 50, "quiescent windows exercised: {checked}");
                return;
            }
        }
        panic!("core did not finish");
    }

    /// Restore oracle for the checkpointed state and the scheduler lists
    /// rebuilt from it: a core + hierarchy saved at any cycle and restored
    /// into fresh ones finishes exactly like the straight run.
    #[test]
    fn restore_at_every_cycle_matches_straight_run() {
        let mut a = Assembler::new();
        a.li(x(1), 0x2000);
        a.li(x(2), 5);
        a.li(x(5), 7);
        a.li(x(8), 0);
        a.li(x(9), 3);
        a.label("loop");
        a.sw(x(2), x(1), 0);
        a.lw(x(3), x(1), 4); // same line as the older store: ordered
        a.lw(x(10), x(1), 64); // next line: free to pass the store
        a.div(x(6), x(3), x(5));
        a.div(x(7), x(6), x(5)); // serialized divides
        a.add(x(2), x(2), x(7));
        a.sw(x(10), x(1), 128);
        a.addi(x(8), x(8), 1);
        a.bne(x(8), x(9), "loop"); // mispredicted on exit
        a.beq(x(8), x(9), "out"); // forward taken: mispredicted
        a.addi(x(2), x(2), 1);
        a.label("out");
        a.halt();
        let prog = Arc::new(a.assemble().unwrap());
        let fresh = |mem: SimMemory| {
            let shared = SharedMem::new(mem);
            let hier = MemHierarchy::new(HierConfig::with_little(0));
            let core = BigCore::new(
                shared.clone(),
                Arc::clone(&prog),
                TEXT_BASE,
                hier.line_bytes(),
                64,
                BigParams::default(),
            );
            (core, hier, shared)
        };
        let finish = |core: &mut BigCore, hier: &mut MemHierarchy, from: u64| {
            for t in from..100_000 {
                hier.tick(t);
                core.tick(t, hier, None);
                if core.done() {
                    return t;
                }
            }
            panic!("big core did not finish");
        };

        let (mut core, mut hier, _) = fresh(SimMemory::new(1 << 16));
        core.assign(0);
        let end = finish(&mut core, &mut hier, 0);
        let want = (*core.stats(), end);
        assert!(want.0.mispredicts >= 2, "{:?}", want.0);

        let (mut core, mut hier, shared) = fresh(SimMemory::new(1 << 16));
        core.assign(0);
        for t in 0..=end {
            let mut w = SnapWriter::new();
            core.save_state(&mut w);
            hier.save_state(&mut w);
            let bytes = w.into_bytes();
            let (mut c2, mut h2, _) = fresh(shared.with(SimMemory::fork));
            let mut r = SnapReader::new(&bytes);
            c2.restore_state(&mut r).unwrap();
            h2.restore_state(&mut r).unwrap();
            r.finish().unwrap();
            let got = finish(&mut c2, &mut h2, t);
            assert_eq!((*c2.stats(), got), want, "restored at cycle {t}");

            hier.tick(t);
            core.tick(t, &mut hier, None);
        }
        assert!(core.done());
    }

    /// Checkpoint fields the scheduler relies on are validated on restore:
    /// a corrupt ROB, store buffer or load count is a typed error.
    #[test]
    fn restore_rejects_inconsistent_state() {
        let mut a = Assembler::new();
        a.li(x(1), 0x2000);
        a.lw(x(2), x(1), 0);
        a.sw(x(2), x(1), 64);
        a.addi(x(3), x(2), 1);
        a.halt();
        let prog = Arc::new(a.assemble().unwrap());
        let fresh = || {
            let hier = MemHierarchy::new(HierConfig::with_little(0));
            let core = BigCore::new(
                SharedMem::new(SimMemory::new(1 << 16)),
                Arc::clone(&prog),
                TEXT_BASE,
                hier.line_bytes(),
                64,
                BigParams::default(),
            );
            (core, hier)
        };
        let (mut core, mut hier) = fresh();
        core.assign(0);
        let mut t = 0;
        while core.sched.loads.is_empty() || core.rob.len() < 3 {
            hier.tick(t);
            core.tick(t, &mut hier, None);
            t += 1;
        }
        let restore = |core: &BigCore| {
            let mut w = SnapWriter::new();
            core.save_state(&mut w);
            let bytes = w.into_bytes();
            fresh().0.restore_state(&mut SnapReader::new(&bytes))
        };
        assert!(restore(&core).is_ok());
        let corruptions: [fn(&mut BigCore); 5] = [
            |c| c.rob[1].seq += 5,
            |c| c.outstanding_stores = vec![4, 3],
            |c| c.outstanding_stores = vec![2, 2],
            |c| c.outstanding_stores = (1..=9).collect(),
            |c| c.sched.loads.push((99, 0)),
        ];
        for (i, corrupt) in corruptions.iter().enumerate() {
            let (mut bad, _) = fresh();
            let mut w = SnapWriter::new();
            core.save_state(&mut w);
            bad.restore_state(&mut SnapReader::new(&w.into_bytes()))
                .unwrap();
            corrupt(&mut bad);
            assert!(
                matches!(restore(&bad), Err(SnapError::Corrupt { .. })),
                "corruption {i} accepted"
            );
        }
    }

    #[test]
    fn rob_drains_on_done() {
        let mut a = Assembler::new();
        a.li(x(1), 0x3000);
        a.li(x(2), 42);
        a.sw(x(2), x(1), 0);
        a.halt();
        let (core, _) = run_big(&a);
        assert!(core.done());
        assert_eq!(core.stats().retired, 4);
    }
}

#[cfg(test)]
mod engine_protocol_tests {
    use super::*;
    use crate::fetch::TEXT_BASE;
    use bvl_isa::asm::Assembler;
    use bvl_isa::reg::{VReg, XReg};
    use bvl_isa::vcfg::Sew;
    use bvl_mem::{HierConfig, SimMemory};
    use std::collections::VecDeque;

    /// A controllable fake engine for protocol tests.
    struct MockEngine {
        accepted: Vec<VecCmd>,
        scalar_done: VecDeque<u64>,
        drained: bool,
    }

    impl MockEngine {
        fn new() -> Self {
            MockEngine {
                accepted: Vec::new(),
                scalar_done: VecDeque::new(),
                drained: false,
            }
        }
    }

    impl VectorEngine for MockEngine {
        fn can_accept(&self) -> bool {
            true
        }
        fn dispatch(&mut self, cmd: VecCmd) {
            self.accepted.push(cmd);
        }
        fn pop_scalar_done(&mut self) -> Option<u64> {
            self.scalar_done.pop_front()
        }
        fn mem_drained(&self) -> bool {
            self.drained
        }
        fn idle(&self) -> bool {
            true
        }
        fn tick(&mut self, _now: u64, _hier: &mut MemHierarchy) {}
        fn vlen_bits(&self) -> u32 {
            512
        }
    }

    fn setup(a: &Assembler) -> (BigCore, MemHierarchy) {
        let prog = Arc::new(a.assemble().unwrap());
        let shared = SharedMem::new(SimMemory::new(1 << 20));
        let hier = MemHierarchy::new(HierConfig::with_little(0));
        let mut core = BigCore::new(
            shared,
            prog,
            TEXT_BASE,
            hier.line_bytes(),
            512,
            BigParams::default(),
        );
        core.assign(0);
        (core, hier)
    }

    /// `vmfence` must hold the ROB head until the engine reports its
    /// memory pipeline drained (paper section III-B).
    #[test]
    fn vmfence_waits_for_engine_drain() {
        let mut a = Assembler::new();
        a.vsetivli(XReg::new(1), 8, Sew::E32);
        a.li(XReg::new(2), 0x4000);
        a.vse(VReg::new(1), XReg::new(2));
        a.vmfence();
        a.halt();
        let (mut core, mut hier) = setup(&a);
        let mut engine = MockEngine::new();
        for t in 0..500u64 {
            hier.tick(t);
            core.tick(t, &mut hier, Some(&mut engine));
        }
        assert_eq!(engine.accepted.len(), 1, "store dispatched");
        assert!(!core.done(), "fence must block while engine is wet");
        engine.drained = true;
        for t in 500..1000u64 {
            hier.tick(t);
            core.tick(t, &mut hier, Some(&mut engine));
            if core.done() {
                return;
            }
        }
        panic!("core did not finish after drain");
    }

    /// A scalar-writing vector instruction blocks commit until the engine
    /// responds with its sequence number (paper section III-A).
    #[test]
    fn scalar_writing_vector_blocks_until_response() {
        let mut a = Assembler::new();
        a.vsetivli(XReg::new(1), 8, Sew::E32);
        a.vpopc(XReg::new(3), VReg::MASK);
        a.addi(XReg::new(4), XReg::new(3), 1); // depends on the result
        a.halt();
        let (mut core, mut hier) = setup(&a);
        let mut engine = MockEngine::new();
        let mut popc_seq = None;
        for t in 0..500u64 {
            hier.tick(t);
            core.tick(t, &mut hier, Some(&mut engine));
            if popc_seq.is_none() {
                popc_seq = engine
                    .accepted
                    .iter()
                    .find(|c| c.needs_scalar_response)
                    .map(|c| c.seq);
            }
        }
        let seq = popc_seq.expect("vpopc dispatched");
        assert!(!core.done(), "vpopc must block at the ROB head");
        engine.scalar_done.push_back(seq);
        for t in 500..1000u64 {
            hier.tick(t);
            core.tick(t, &mut hier, Some(&mut engine));
            if core.done() {
                return;
            }
        }
        panic!("core did not finish after scalar response");
    }

    /// Non-scalar-writing vector instructions commit at dispatch: the big
    /// core finishes without any engine response.
    #[test]
    fn plain_vector_instrs_commit_at_dispatch() {
        let mut a = Assembler::new();
        a.vsetivli(XReg::new(1), 8, Sew::E32);
        a.vid(VReg::new(1));
        a.vadd_vv(VReg::new(2), VReg::new(1), VReg::new(1));
        a.halt();
        let (mut core, mut hier) = setup(&a);
        let mut engine = MockEngine::new();
        for t in 0..500u64 {
            hier.tick(t);
            core.tick(t, &mut hier, Some(&mut engine));
            if core.done() {
                assert_eq!(engine.accepted.len(), 2);
                return;
            }
        }
        panic!("core never finished");
    }
}
