//! Lazy op-graph runtime with elementwise fusion.
//!
//! Elementwise [`crate::Tensor`] ops do not compute immediately: they record
//! a node into a per-tensor expression graph, and the buffer is produced on
//! first access by [`realize`], which **fuses** the pending chain into a
//! single loop — one output allocation and one pass over memory for an
//! arbitrarily long add/sub/mul/div/max/relu/… chain, dispatched over
//! `lmmir-par` blocks. Non-elementwise kernels (gemm, conv, reductions,
//! shape ops) read realized buffers, so they act as natural fusion
//! boundaries and stay bitwise identical to the historical eager path.
//!
//! ## Determinism contract
//!
//! A fused program applies, per element, exactly the scalar operations the
//! eager path would have applied, in the same dependency order — nothing is
//! reassociated, skipped, or approximated (`0 · inf` still produces NaN).
//! The block layout of the fused loop depends only on the problem size,
//! never the thread count, so results are bitwise identical at any
//! `LMMIR_THREADS` and identical to the eager path ([`with_eager`]).
//!
//! ## Graph shape
//!
//! Each [`Tensor`](crate::Tensor) holds an `Arc<LazyNode>`. A node is either
//! a **leaf** (buffer already present) or a **pending** unary/binary/expand
//! expression over child nodes. [`realize`] compiles the pending subgraph
//! rooted at a node into a register program:
//!
//! * a child consumed by exactly one parent expression is **inlined** into
//!   the parent's program (no intermediate buffer ever exists for it);
//! * a child consumed by two or more expressions (a diamond) is
//!   **materialized first** — computed exactly once, then read as a plain
//!   input by every consumer;
//! * a broadcast operand that collapses to "repeat each element `inner`
//!   times, cycle" (`[..,n] op [n]`, `[N,C,H,W] op [1,C,1,1]`, …) enters as
//!   an **expand** node: the program fills a block register from the small
//!   realized buffer, so `conv → +bias → BatchNorm → relu` is one program;
//! * realization is idempotent: a node's buffer is computed at most once
//!   (`OnceLock`), and re-realizing is a no-op.
//!
//! Freed output buffers are recycled through a small thread-local pool, so
//! steady-state chains allocate nothing.
//!
//! Wrap a region in [`with_eager`] to bypass the graph on the calling thread
//! and compute every op immediately — the test oracle and debugging escape
//! hatch. There is no process-wide switch.

use std::cell::{Cell, RefCell};
use std::mem;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Elementwise binary opcodes. The scalar formulas match the eager kernels
/// exactly (see [`BinOp::apply`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `a + b`
    Add,
    /// `a - b`
    Sub,
    /// `a * b`
    Mul,
    /// `a / b`
    Div,
    /// `f32::max(a, b)`
    Max,
}

impl BinOp {
    /// The exact scalar computation of this opcode — the single source of
    /// truth shared by the fused executor, the eager bypass, and the
    /// broadcast fallback, so all three are bitwise identical.
    #[inline]
    #[must_use]
    pub fn apply(self, a: f32, b: f32) -> f32 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
            BinOp::Max => f32::max(a, b),
        }
    }
}

/// Elementwise unary opcodes (including binaries with one captured scalar
/// operand, which fuse as unaries).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UnaryOp {
    /// `-x`
    Neg,
    /// `x.max(0.0)`
    Relu,
    /// `1.0 / (1.0 + (-x).exp())`
    Sigmoid,
    /// `x.tanh()`
    Tanh,
    /// `x.exp()`
    Exp,
    /// `x.ln()`
    Ln,
    /// `x.sqrt()`
    Sqrt,
    /// `x * x`
    Square,
    /// `if x > 0.0 { 1.0 } else { 0.0 }` — the relu backward mask.
    GtzMask,
    /// `x.clamp(lo, hi)`
    Clamp(f32, f32),
    /// `op(x, c)` — binary with a scalar right operand.
    ScalarRhs(BinOp, f32),
    /// `op(c, x)` — binary with a scalar left operand.
    ScalarLhs(BinOp, f32),
}

impl UnaryOp {
    /// The exact scalar computation of this opcode.
    #[inline]
    #[must_use]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            UnaryOp::Neg => -x,
            UnaryOp::Relu => x.max(0.0),
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Ln => x.ln(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Square => x * x,
            UnaryOp::GtzMask => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Clamp(lo, hi) => x.clamp(lo, hi),
            UnaryOp::ScalarRhs(op, c) => op.apply(x, c),
            UnaryOp::ScalarLhs(op, c) => op.apply(c, x),
        }
    }
}

/// The pending expression of a node. Immutable once constructed, so the
/// graph is acyclic by construction and `realize` cannot loop.
pub(crate) enum Expr {
    /// No pending computation — the buffer was provided at construction.
    Leaf,
    /// Unary elementwise op over one child.
    Unary(UnaryOp, Arc<LazyNode>),
    /// Binary elementwise op over two same-`numel` children.
    Binary(BinOp, Arc<LazyNode>, Arc<LazyNode>),
    /// Broadcast view of a smaller child: element `i` reads
    /// `child[(i / inner) % child.numel]` (repeat each element `inner`
    /// times, cycle). Never inlines its child — the gather needs a buffer.
    Expand(Arc<LazyNode>, usize),
}

impl Expr {
    fn children(&self) -> [Option<&Arc<LazyNode>>; 2] {
        match self {
            Expr::Leaf => [None, None],
            Expr::Unary(_, a) | Expr::Expand(a, _) => [Some(a), None],
            Expr::Binary(_, a, b) => [Some(a), Some(b)],
        }
    }
}

impl Clone for Expr {
    fn clone(&self) -> Self {
        // A cloned expression adds one more consumer to each child: keep the
        // counts exact so shared children still materialize exactly once.
        for c in self.children().into_iter().flatten() {
            c.consumers.fetch_add(1, Ordering::Relaxed);
        }
        match self {
            Expr::Leaf => Expr::Leaf,
            Expr::Unary(op, a) => Expr::Unary(*op, a.clone()),
            Expr::Binary(op, a, b) => Expr::Binary(*op, a.clone(), b.clone()),
            Expr::Expand(a, inner) => Expr::Expand(a.clone(), *inner),
        }
    }
}

/// One vertex of the lazy graph: an element count, an optional realized
/// buffer, and the pending expression that produces the buffer on demand.
pub(crate) struct LazyNode {
    numel: usize,
    buf: OnceLock<Vec<f32>>,
    expr: Expr,
    /// How many parent expressions consume this node. `>= 2` means the node
    /// is a shared subexpression and must be materialized exactly once
    /// rather than inlined into (and recomputed by) each consumer.
    consumers: AtomicUsize,
}

impl LazyNode {
    /// Leaf node over an existing buffer.
    pub(crate) fn leaf(data: Vec<f32>) -> Arc<Self> {
        let buf = OnceLock::new();
        let numel = data.len();
        let _ = buf.set(data);
        Arc::new(LazyNode {
            numel,
            buf,
            expr: Expr::Leaf,
            consumers: AtomicUsize::new(0),
        })
    }

    /// Pending unary node.
    pub(crate) fn unary(op: UnaryOp, a: Arc<LazyNode>) -> Arc<Self> {
        a.consumers.fetch_add(1, Ordering::Relaxed);
        Arc::new(LazyNode {
            numel: a.numel,
            buf: OnceLock::new(),
            expr: Expr::Unary(op, a),
            consumers: AtomicUsize::new(0),
        })
    }

    /// Pending binary node (children must have equal `numel`).
    pub(crate) fn binary(op: BinOp, a: Arc<LazyNode>, b: Arc<LazyNode>) -> Arc<Self> {
        debug_assert_eq!(a.numel, b.numel, "fused binary operands must match");
        a.consumers.fetch_add(1, Ordering::Relaxed);
        b.consumers.fetch_add(1, Ordering::Relaxed);
        Arc::new(LazyNode {
            numel: a.numel,
            buf: OnceLock::new(),
            expr: Expr::Binary(op, a, b),
            consumers: AtomicUsize::new(0),
        })
    }

    /// Pending broadcast of `a` to `numel` elements: element `i` reads
    /// `a[(i / inner) % a.numel]`.
    pub(crate) fn expand(a: Arc<LazyNode>, inner: usize, numel: usize) -> Arc<Self> {
        a.consumers.fetch_add(1, Ordering::Relaxed);
        Arc::new(LazyNode {
            numel,
            buf: OnceLock::new(),
            expr: Expr::Expand(a, inner),
            consumers: AtomicUsize::new(0),
        })
    }

    pub(crate) fn numel(&self) -> usize {
        self.numel
    }

    /// Whether the buffer has been computed yet (test/debug introspection).
    pub(crate) fn is_realized(&self) -> bool {
        self.buf.get().is_some()
    }

    /// Drops the pending expression of a realized node, releasing its
    /// parents. Only valid once the buffer is set (`data_mut` path).
    pub(crate) fn clear_expr(&mut self) {
        debug_assert!(self.is_realized());
        self.expr = Expr::Leaf;
    }

    pub(crate) fn buf_mut(&mut self) -> &mut Vec<f32> {
        self.buf.get_mut().expect("buf_mut on unrealized node")
    }

    /// Steals the realized buffer out of the node (`into_vec` path).
    pub(crate) fn take_buf(&mut self) -> Vec<f32> {
        self.buf.take().expect("take_buf on unrealized node")
    }

    /// Borrow of the realized buffer.
    pub(crate) fn buf_ref(&self) -> &Vec<f32> {
        self.buf.get().expect("buf_ref on unrealized node")
    }
}

impl Clone for LazyNode {
    fn clone(&self) -> Self {
        let buf = OnceLock::new();
        let expr = match self.buf.get() {
            // Realized: the clone is a plain leaf copy of the buffer; it
            // does not need (and must not double-count) the parents.
            Some(b) => {
                let _ = buf.set(b.clone());
                Expr::Leaf
            }
            None => self.expr.clone(),
        };
        LazyNode {
            numel: self.numel,
            buf,
            expr,
            consumers: AtomicUsize::new(0),
        }
    }
}

impl Drop for LazyNode {
    fn drop(&mut self) {
        if let Some(b) = self.buf.take() {
            pool_put(b);
        }
        // Tear down the expression chain iteratively: a 10k-op pending chain
        // (or a just-realized deep graph) must not recurse through nested
        // `Arc` drops and overflow the stack.
        let mut stack = vec![mem::replace(&mut self.expr, Expr::Leaf)];
        while let Some(e) = stack.pop() {
            let children = match e {
                Expr::Leaf => continue,
                Expr::Unary(_, a) | Expr::Expand(a, _) => [Some(a), None],
                Expr::Binary(_, a, b) => [Some(a), Some(b)],
            };
            for child in children.into_iter().flatten() {
                if let Some(mut inner) = Arc::into_inner(child) {
                    // Last reference: dismantle in this loop instead of
                    // recursing. `inner` drops here with an empty expr and
                    // no buffer, so its own Drop is trivial.
                    if let Some(b) = inner.buf.take() {
                        pool_put(b);
                    }
                    stack.push(mem::replace(&mut inner.expr, Expr::Leaf));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Eager bypass
// ---------------------------------------------------------------------------

thread_local! {
    static EAGER: Cell<bool> = const { Cell::new(false) };
}

/// True when ops should compute immediately instead of recording graph
/// nodes: the calling thread is inside [`with_eager`].
#[must_use]
pub fn eager_mode() -> bool {
    EAGER.with(Cell::get)
}

/// Runs `f` with the lazy graph bypassed on this thread: every elementwise
/// op computes immediately, exactly as the pre-fusion eager kernels did.
/// The oracle the fusion tests compare against, the baseline of the
/// `kernels-guard` fusion gate, and a debugging aid. Restores the previous
/// mode on exit (also on panic).
pub fn with_eager<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            EAGER.with(|e| e.set(self.0));
        }
    }
    let _restore = Restore(EAGER.with(|e| e.replace(true)));
    f()
}

/// Eager unary kernel — same opcode table as the fused executor.
pub(crate) fn unary_eager(op: UnaryOp, src: &[f32]) -> Vec<f32> {
    let mut out = pool_get(src.len());
    apply_unary(op, src, &mut out);
    out
}

/// Eager binary kernel — same opcode table as the fused executor.
pub(crate) fn binary_eager(op: BinOp, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut out = pool_get(a.len());
    apply_binary(op, a, b, &mut out);
    out
}

/// Eager broadcast binary kernel: `small` is read through the
/// repeat-`inner`/cycle pattern of [`Expr::Expand`], block by block, with
/// the same fill and opcode loops as the fused executor.
pub(crate) fn binary_expand_eager(
    op: BinOp,
    full: &[f32],
    small: &[f32],
    inner: usize,
    small_is_lhs: bool,
) -> Vec<f32> {
    let mut out = pool_get(full.len());
    let mut reg = [0.0f32; BLOCK];
    for (bi, dst) in out.chunks_mut(BLOCK).enumerate() {
        let base = bi * BLOCK;
        let reg = &mut reg[..dst.len()];
        fill_expand(small, inner, base, reg);
        let full = &full[base..base + dst.len()];
        if small_is_lhs {
            apply_binary(op, reg, full, dst);
        } else {
            apply_binary(op, full, reg, dst);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Buffer pool
// ---------------------------------------------------------------------------

/// Retained free buffers per thread. Small on purpose: the win is steady
/// states (training steps, batched serving) where the same handful of
/// activation shapes cycles every iteration.
const POOL_SLOTS: usize = 16;

thread_local! {
    static POOL: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// A zeroed or recycled buffer of exactly `len` elements. Recycled buffers
/// hold stale data; every caller overwrites all `len` slots.
fn pool_get(len: usize) -> Vec<f32> {
    if len > 0 {
        let hit = POOL.with(|p| {
            let mut p = p.borrow_mut();
            p.iter()
                .position(|b| b.capacity() >= len)
                .map(|i| p.swap_remove(i))
        });
        if let Some(mut b) = hit {
            STATS.with(|s| s.pool_hits.set(s.pool_hits.get() + 1));
            b.clear();
            b.resize(len, 0.0);
            return b;
        }
    }
    STATS.with(|s| s.fresh_allocs.set(s.fresh_allocs.get() + 1));
    vec![0.0; len]
}

fn pool_put(b: Vec<f32>) {
    if b.capacity() == 0 {
        return;
    }
    POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < POOL_SLOTS {
            p.push(b);
        } else if let Some(i) = p.iter().position(|x| x.capacity() < b.capacity()) {
            p[i] = b;
        }
    });
}

// ---------------------------------------------------------------------------
// Stats (deterministic, thread-local — for tests and debugging)
// ---------------------------------------------------------------------------

/// Counters describing what the lazy runtime did on the current thread
/// since the last [`reset_stats`]. Deterministic for single-threaded graph
/// construction + realization, which is how the graph-shape tests use them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Fused programs executed (each writes exactly one output buffer).
    pub programs: usize,
    /// Total instructions across executed programs; `instructions -
    /// programs` intermediates were eliminated by fusion.
    pub instructions: usize,
    /// Output buffers taken from the thread-local recycling pool.
    pub pool_hits: usize,
    /// Output buffers that required a fresh heap allocation.
    pub fresh_allocs: usize,
}

#[derive(Default)]
struct StatCells {
    programs: Cell<usize>,
    instructions: Cell<usize>,
    pool_hits: Cell<usize>,
    fresh_allocs: Cell<usize>,
}

thread_local! {
    static STATS: StatCells = StatCells::default();
}

/// Snapshot of this thread's lazy-runtime counters.
#[must_use]
pub fn stats() -> Stats {
    STATS.with(|s| Stats {
        programs: s.programs.get(),
        instructions: s.instructions.get(),
        pool_hits: s.pool_hits.get(),
        fresh_allocs: s.fresh_allocs.get(),
    })
}

/// Zeroes this thread's lazy-runtime counters.
pub fn reset_stats() {
    STATS.with(|s| {
        s.programs.set(0);
        s.instructions.set(0);
        s.pool_hits.set(0);
        s.fresh_allocs.set(0);
    });
}

// ---------------------------------------------------------------------------
// Compilation: pending subgraph -> register program
// ---------------------------------------------------------------------------

/// Fusion budget: longest chain folded into one program. Bounds compile
/// cost and per-thread scratch (`MAX_FUSED_OPS * BLOCK` floats ≈ 256 KiB);
/// longer chains split into several sequential programs, still without any
/// shared intermediate buffers beyond the split points.
const MAX_FUSED_OPS: usize = 64;

/// Elements per interpreter block. Fixed — never derived from the thread
/// count — so the fused loop is bitwise identical at any parallelism, and
/// small enough that all live registers of a block stay cache-resident.
const BLOCK: usize = 1024;

/// Minimum `numel * instructions` before the executor forks worker threads:
/// at ~1 ns per element-op `2^20` is ~1 ms per 30–100 µs fork (see
/// `PAR_MIN_FLOPS` in `linalg` for the measurement behind every gate).
const PAR_MIN_WORK: usize = 1 << 20;

#[derive(Clone, Copy)]
enum Src {
    /// Realized input buffer `inputs[i]`.
    Input(usize),
    /// Result of instruction `i` of the same program.
    Reg(usize),
}

enum Instr {
    Un(UnaryOp, Src),
    Bin(BinOp, Src, Src),
    /// Fill from the whole of `inputs[k]` through the broadcast pattern
    /// `(i / inner) % len`.
    Expand(usize, usize),
}

/// A fused elementwise program in dependency order: instruction `i` writes
/// register `i`; the last instruction writes the output buffer.
struct Program {
    instrs: Vec<Instr>,
    inputs: Vec<Arc<LazyNode>>,
}

/// Outcome of trying to compile `root`: either every external input is
/// already realized, or some shared/over-budget children must be realized
/// first.
enum Compiled {
    Ready(Program),
    Missing(Vec<Arc<LazyNode>>),
}

/// Can `child` be folded into the consumer's program? Only when nothing
/// else will ever want its buffer: it is pending and consumed by exactly
/// one expression. Shared children (diamonds) and realized children become
/// program inputs instead.
fn inline_child(child: &Arc<LazyNode>) -> bool {
    child.buf.get().is_none()
        && !matches!(child.expr, Expr::Leaf)
        && child.consumers.load(Ordering::Relaxed) == 1
}

fn compile(root: &Arc<LazyNode>) -> Compiled {
    debug_assert!(root.buf.get().is_none(), "compiling a realized node");
    let mut instrs: Vec<Instr> = Vec::new();
    let mut inputs: Vec<Arc<LazyNode>> = Vec::new();
    let mut missing: Vec<Arc<LazyNode>> = Vec::new();
    let mut budget = MAX_FUSED_OPS;

    // Post-order walk with an explicit machine so a 10k-op chain cannot
    // overflow the stack. Each frame emits its instruction once all child
    // operands are resolved to sources.
    enum Task<'a> {
        Visit(&'a Arc<LazyNode>),
        Emit(&'a Arc<LazyNode>),
    }
    let mut work: Vec<Task> = vec![Task::Visit(root)];
    let mut operands: Vec<Src> = Vec::new();
    while let Some(task) = work.pop() {
        match task {
            Task::Visit(n) => {
                let is_root = Arc::ptr_eq(n, root);
                if !is_root && (!inline_child(n) || budget == 0) {
                    // Realized, shared (diamond) or over-budget child: read
                    // it as a plain input, realizing it first if pending.
                    operands.push(Src::Input(push_input(&mut inputs, &mut missing, n)));
                    continue;
                }
                budget = budget.saturating_sub(1);
                // Children are pushed after the Emit marker so they resolve
                // first; Visit order is reversed by the stack, so push the
                // right child first to pop the left child first.
                match &n.expr {
                    Expr::Leaf => unreachable!("leaf handled as input above"),
                    Expr::Unary(_, a) => work.extend([Task::Emit(n), Task::Visit(a)]),
                    Expr::Binary(_, a, b) => {
                        work.extend([Task::Emit(n), Task::Visit(b), Task::Visit(a)]);
                    }
                    Expr::Expand(a, inner) => {
                        // No register operands: emit at once, reading the
                        // whole (realized) child buffer through the gather.
                        let k = push_input(&mut inputs, &mut missing, a);
                        instrs.push(Instr::Expand(k, *inner));
                        operands.push(Src::Reg(instrs.len() - 1));
                    }
                }
            }
            Task::Emit(n) => {
                let instr = match &n.expr {
                    Expr::Leaf | Expr::Expand(..) => unreachable!("emitted without a marker"),
                    Expr::Unary(op, _) => {
                        let a = operands.pop().expect("unary operand");
                        Instr::Un(*op, a)
                    }
                    Expr::Binary(op, _, _) => {
                        let b = operands.pop().expect("binary rhs operand");
                        let a = operands.pop().expect("binary lhs operand");
                        Instr::Bin(*op, a, b)
                    }
                };
                instrs.push(instr);
                operands.push(Src::Reg(instrs.len() - 1));
            }
        }
    }

    if missing.is_empty() {
        debug_assert_eq!(operands.len(), 1, "program must leave one result");
        Compiled::Ready(Program { instrs, inputs })
    } else {
        Compiled::Missing(missing)
    }
}

/// Input slot of `n`, which joins `missing` when it is still pending.
fn push_input(
    inputs: &mut Vec<Arc<LazyNode>>,
    missing: &mut Vec<Arc<LazyNode>>,
    n: &Arc<LazyNode>,
) -> usize {
    // Dedup by node identity so a diamond reads one buffer through one slot.
    if let Some(i) = inputs.iter().position(|x| Arc::ptr_eq(x, n)) {
        return i;
    }
    if n.buf.get().is_none() {
        missing.push(n.clone());
    }
    inputs.push(n.clone());
    inputs.len() - 1
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

fn apply_unary(op: UnaryOp, src: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(src.len(), dst.len());
    // One match per slice, then a tight loop per opcode: the dispatch cost
    // is amortized over the block, and each arm is a vectorizable loop.
    match op {
        UnaryOp::Neg => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = -s;
            }
        }
        UnaryOp::Relu => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.max(0.0);
            }
        }
        UnaryOp::Sigmoid => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = 1.0 / (1.0 + (-s).exp());
            }
        }
        UnaryOp::Tanh => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.tanh();
            }
        }
        UnaryOp::Exp => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.exp();
            }
        }
        UnaryOp::Ln => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.ln();
            }
        }
        UnaryOp::Sqrt => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.sqrt();
            }
        }
        UnaryOp::Square => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s * s;
            }
        }
        UnaryOp::GtzMask => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = if s > 0.0 { 1.0 } else { 0.0 };
            }
        }
        UnaryOp::Clamp(lo, hi) => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s.clamp(lo, hi);
            }
        }
        UnaryOp::ScalarRhs(op, c) => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = op.apply(s, c);
            }
        }
        UnaryOp::ScalarLhs(op, c) => {
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = op.apply(c, s);
            }
        }
    }
}

fn apply_binary(op: BinOp, a: &[f32], b: &[f32], dst: &mut [f32]) {
    debug_assert_eq!(a.len(), dst.len());
    debug_assert_eq!(b.len(), dst.len());
    match op {
        BinOp::Add => {
            for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
                *d = x + y;
            }
        }
        BinOp::Sub => {
            for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
                *d = x - y;
            }
        }
        BinOp::Mul => {
            for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
                *d = x * y;
            }
        }
        BinOp::Div => {
            for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
                *d = x / y;
            }
        }
        BinOp::Max => {
            for (d, (&x, &y)) in dst.iter_mut().zip(a.iter().zip(b)) {
                *d = f32::max(x, y);
            }
        }
    }
}

/// `dst[i] = src[((base + i) / inner) % src.len()]`, written as runs: a
/// contiguous copy per cycle when `inner == 1`, one fill per repeated
/// element otherwise.
fn fill_expand(src: &[f32], inner: usize, base: usize, mut dst: &mut [f32]) {
    if dst.is_empty() {
        return;
    }
    let mut j = (base / inner) % src.len();
    let mut run = if inner == 1 {
        src.len() - j
    } else {
        inner - base % inner
    };
    while !dst.is_empty() {
        let take = run.min(dst.len());
        let (head, tail) = mem::take(&mut dst).split_at_mut(take);
        if inner == 1 {
            head.copy_from_slice(&src[j..j + head.len()]);
            (j, run) = (0, src.len());
        } else {
            head.fill(src[j]);
            (j, run) = ((j + 1) % src.len(), inner);
        }
        dst = tail;
    }
}

/// Runs one block of the program. `scratch` holds `instrs.len() - 1`
/// registers of `BLOCK` elements; the final instruction writes `out`.
fn run_block(prog: &Program, inputs: &[&[f32]], base: usize, out: &mut [f32], scratch: &mut [f32]) {
    let len = out.len();
    let last = prog.instrs.len() - 1;
    for (i, instr) in prog.instrs.iter().enumerate() {
        let (regs, rest) = scratch.split_at_mut(i * BLOCK);
        let dst: &mut [f32] = if i == last {
            &mut out[..]
        } else {
            &mut rest[..len]
        };
        let src = |s: Src| -> &[f32] {
            match s {
                Src::Input(k) => &inputs[k][base..base + len],
                Src::Reg(j) => &regs[j * BLOCK..j * BLOCK + len],
            }
        };
        match instr {
            Instr::Un(op, a) => apply_unary(*op, src(*a), dst),
            Instr::Bin(op, a, b) => apply_binary(*op, src(*a), src(*b), dst),
            Instr::Expand(k, inner) => fill_expand(inputs[*k], *inner, base, dst),
        }
    }
}

fn execute(node: &LazyNode, prog: &Program) {
    let numel = node.numel;
    let inputs: Vec<&[f32]> = prog
        .inputs
        .iter()
        .map(|n| n.buf.get().expect("program inputs are realized").as_slice())
        .collect();
    let mut out = pool_get(numel);
    let scratch_regs = prog.instrs.len().saturating_sub(1);
    let blocks = numel.div_ceil(BLOCK).max(1);
    if lmmir_par::worth_parallelizing(blocks, numel * prog.instrs.len(), PAR_MIN_WORK) {
        lmmir_par::par_chunks_mut(&mut out, BLOCK, |u0, chunk| {
            let mut scratch = vec![0.0f32; scratch_regs * BLOCK];
            for (bi, blk) in chunk.chunks_mut(BLOCK).enumerate() {
                run_block(prog, &inputs, (u0 + bi) * BLOCK, blk, &mut scratch);
            }
        });
    } else {
        let mut scratch = vec![0.0f32; scratch_regs * BLOCK];
        for (bi, blk) in out.chunks_mut(BLOCK).enumerate() {
            run_block(prog, &inputs, bi * BLOCK, blk, &mut scratch);
        }
    }
    STATS.with(|s| {
        s.programs.set(s.programs.get() + 1);
        s.instructions.set(s.instructions.get() + prog.instrs.len());
    });
    if let Err(redundant) = node.buf.set(out) {
        // Another thread realized this node concurrently. Both programs
        // computed bitwise-identical bytes, so losing the race is benign —
        // just recycle the redundant buffer.
        pool_put(redundant);
    }
}

/// Realizes `node`: computes and memoizes its buffer (fusing the pending
/// chain) if needed, then returns the buffer. Idempotent — a second call is
/// a lock-free read.
pub(crate) fn realize(node: &Arc<LazyNode>) -> &[f32] {
    if let Some(b) = node.buf.get() {
        return b;
    }
    realize_pending(node);
    node.buf.get().expect("realize produced a buffer")
}

fn realize_pending(root: &Arc<LazyNode>) {
    // Iterative scheduler: compile the top of the stack; if it depends on
    // unrealized shared children, realize those first. Each node compiles
    // at most twice (once discovering dependencies, once ready), so a chain
    // of depth d costs O(d) work overall.
    let mut stack: Vec<Arc<LazyNode>> = vec![root.clone()];
    while let Some(n) = stack.last().cloned() {
        if n.buf.get().is_some() {
            stack.pop();
            continue;
        }
        match compile(&n) {
            Compiled::Ready(prog) => {
                execute(&n, &prog);
                stack.pop();
            }
            Compiled::Missing(deps) => stack.extend(deps),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Arc<LazyNode> {
        let mut node = LazyNode::leaf(vec![1.0; 8]);
        for _ in 0..n {
            node = LazyNode::unary(UnaryOp::ScalarRhs(BinOp::Add, 1.0), node);
        }
        node
    }

    #[test]
    fn short_chain_fuses_into_one_program() {
        reset_stats();
        let node = chain(5);
        assert_eq!(realize(&node), &[6.0; 8]);
        let s = stats();
        assert_eq!(s.programs, 1);
        assert_eq!(s.instructions, 5);
    }

    #[test]
    fn deep_chain_realizes_and_drops_iteratively() {
        let node = chain(10_000);
        assert_eq!(realize(&node)[0], 10_001.0);
        drop(node); // must not overflow the stack
    }

    #[test]
    fn shared_child_materializes_once() {
        reset_stats();
        let base = LazyNode::unary(UnaryOp::Square, LazyNode::leaf(vec![3.0; 4]));
        let l = LazyNode::unary(UnaryOp::ScalarRhs(BinOp::Add, 1.0), base.clone());
        let r = LazyNode::unary(UnaryOp::ScalarRhs(BinOp::Add, 2.0), base.clone());
        let top = LazyNode::binary(BinOp::Sub, l, r);
        assert_eq!(realize(&top), &[-1.0; 4]);
        // `base` ran once as its own program; `top` fused the rest.
        let s = stats();
        assert_eq!(s.programs, 2);
        assert!(base.is_realized());
    }

    #[test]
    fn unrealized_buffers_never_exist_for_inlined_nodes() {
        let inner = LazyNode::unary(UnaryOp::Relu, LazyNode::leaf(vec![-1.0, 2.0]));
        let outer = LazyNode::unary(UnaryOp::Neg, inner.clone());
        // `inner` has two Arc refs (here + expr) but only one consumer, so
        // it fuses — its buffer is never materialized by realizing `outer`.
        assert_eq!(realize(&outer), &[0.0, -2.0]);
        assert!(!inner.is_realized());
        // Reading it later still works (recompute, then memoized).
        assert_eq!(realize(&inner), &[0.0, 2.0]);
        assert!(inner.is_realized());
    }

    #[test]
    fn eager_override_is_scoped() {
        assert!(!eager_mode());
        with_eager(|| assert!(eager_mode()));
        assert!(!eager_mode());
    }
}
