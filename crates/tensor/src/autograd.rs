//! Reverse-mode automatic differentiation.
//!
//! A [`Var`] wraps a [`Tensor`] in a dynamically built computation graph
//! (a "tape"). Non-leaf variables remember their parents and a backward
//! closure that maps the output gradient to per-parent gradients. Calling
//! [`Var::backward`] on a scalar loss walks the graph in reverse topological
//! order and accumulates gradients on every parameter leaf.
//!
//! The graph is a DAG of `Arc` nodes built per forward pass and freed when the
//! loss variable is dropped, mirroring PyTorch's define-by-run semantics.
//!
//! A tape is built only outside [`no_grad`]. Inside it, every op result is a
//! plain value with no parents and no backward closure, whatever its inputs,
//! so an intermediate is freed as soon as its last consumer has run — the
//! inference path (`lmm_ir::InferenceSession::forward`) runs there. The
//! switch is per thread, like `lmmir_par::with_threads` and
//! [`crate::lazy::with_eager`]: a thread spawned inside the scope records.
//!
//! A [`Var`] is `Send + Sync`: the value sits behind an `RwLock` and the
//! gradient behind a `Mutex`, so any number of threads can run forward
//! passes over one set of parameters at once (each pass builds its own
//! graph and only *reads* the shared leaves). Writers — optimizer steps and
//! checkpoint loads — take the value's write lock per parameter; running
//! them concurrently with a forward is a caller-level race (the pass may
//! see some parameters updated and others not), not a memory-safety one.
//! Both locks recover from poisoning with `PoisonError::into_inner`: what
//! they guard is a tensor handle, which a panic on another thread leaves
//! valid (at worst partially stepped by the optimizer that panicked) and a
//! forward never writes at all.
//!
//! Values are lazy [`Tensor`]s (see [`crate::lazy`]): elementwise forward
//! chains record fused programs instead of materializing per-op buffers, and
//! the backward closures in [`crate::ops`] build their gradients from the
//! same lazy ops, so backward chains (relu masks, sigmoid/tanh derivative
//! products, accumulated `add_assign` sums) fuse too. Results are bitwise
//! identical to the historical eager evaluation; reductions, matmul, conv,
//! and the optimizer's reads realize buffers at the usual boundaries.

use crate::tensor::Tensor;
use std::cell::Cell;
use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static NO_GRAD: Cell<bool> = const { Cell::new(false) };
}

/// Whether ops on this thread record a tape: false inside [`no_grad`].
fn grad_enabled() -> bool {
    !NO_GRAD.with(Cell::get)
}

/// Runs `f` with tape recording off on this thread: every op result inside
/// is a value without parents or backward closure, so nothing it computes
/// outlives its consumers and [`Var::backward`] on it is a no-op. Values are
/// bitwise those of a recording run (same kernels, same order). Restores the
/// previous setting on exit (also on panic). Threads spawned inside record:
/// a fork that should not must enter `no_grad` itself.
pub fn no_grad<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            NO_GRAD.with(|g| g.set(self.0));
        }
    }
    let _restore = Restore(NO_GRAD.with(|g| g.replace(true)));
    f()
}

/// Closure mapping the gradient at a node to gradients for each parent
/// (aligned with the `parents` vector; `None` skips a parent).
pub type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<Option<Tensor>> + Send + Sync>;

pub(crate) struct Node {
    id: u64,
    value: RwLock<Tensor>,
    grad: Mutex<Option<Tensor>>,
    /// Leaf created with `parameter` (receives gradient accumulation).
    is_param: bool,
    /// Whether gradient must flow through this node at all.
    needs_grad: bool,
    parents: Vec<Var>,
    backward: Option<BackwardFn>,
}

/// An autograd variable: shared handle to a tensor plus its graph node.
///
/// Cloning a `Var` clones the *handle*, not the data — both clones see the
/// same value and gradient, which is how optimizers hold parameters.
///
/// ```
/// use lmmir_tensor::{Tensor, Var};
/// # fn main() -> Result<(), lmmir_tensor::TensorError> {
/// let w = Var::parameter(Tensor::from_vec(vec![2.0], &[1])?);
/// let loss = w.mul(&w)?.sum(); // w^2
/// loss.backward();
/// assert_eq!(w.grad().expect("grad").data(), &[4.0]); // d(w^2)/dw = 2w
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Var(pub(crate) Arc<Node>);

impl Var {
    /// Creates a trainable leaf. Gradients accumulate here during
    /// [`Var::backward`].
    #[must_use]
    pub fn parameter(value: Tensor) -> Self {
        Var(Arc::new(Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RwLock::new(value),
            grad: Mutex::new(None),
            is_param: true,
            needs_grad: true,
            parents: Vec::new(),
            backward: None,
        }))
    }

    /// Creates a non-trainable leaf (inputs, targets, masks).
    #[must_use]
    pub fn constant(value: Tensor) -> Self {
        Var(Arc::new(Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RwLock::new(value),
            grad: Mutex::new(None),
            is_param: false,
            needs_grad: false,
            parents: Vec::new(),
            backward: None,
        }))
    }

    /// Builds an interior graph node from an op result.
    ///
    /// `backward` receives the gradient flowing into this node and must
    /// return one optional gradient per entry of `parents`. Neither is kept
    /// when no parent needs a gradient or inside [`no_grad`].
    #[must_use]
    pub fn from_op(value: Tensor, parents: Vec<Var>, backward: BackwardFn) -> Self {
        let needs_grad = grad_enabled() && parents.iter().any(Var::needs_grad);
        Var(Arc::new(Node {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            value: RwLock::new(value),
            grad: Mutex::new(None),
            is_param: false,
            needs_grad,
            parents: if needs_grad { parents } else { Vec::new() },
            backward: if needs_grad { Some(backward) } else { None },
        }))
    }

    /// Unique id of the underlying graph node (stable across clones).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Whether gradient flows through this variable.
    #[must_use]
    pub fn needs_grad(&self) -> bool {
        self.0.needs_grad
    }

    /// Whether this is a trainable parameter leaf.
    #[must_use]
    pub fn is_parameter(&self) -> bool {
        self.0.is_param
    }

    /// Read guard on the current value. Any number of threads may hold one
    /// at once; it blocks only while an optimizer step or checkpoint load
    /// is replacing this very value, so do not hold it across
    /// [`Var::set_value`] / [`Var::update_value`] of the same variable.
    pub fn value(&self) -> RwLockReadGuard<'_, Tensor> {
        self.0.value.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Copy of the current value (cheap: the buffer is shared
    /// copy-on-write and any pending fused chain stays pending).
    #[must_use]
    pub fn to_tensor(&self) -> Tensor {
        self.value().clone()
    }

    /// Shape of the current value.
    #[must_use]
    pub fn dims(&self) -> Vec<usize> {
        self.value().dims().to_vec()
    }

    /// Deep copy of the accumulated gradient, if any.
    #[must_use]
    pub fn grad(&self) -> Option<Tensor> {
        self.0.grad_slot().clone()
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&self) {
        self.set_grad(None);
    }

    /// Replaces the accumulated gradient (used by gradient clipping).
    pub fn set_grad(&self, grad: Option<Tensor>) {
        *self.0.grad_slot() = grad;
    }

    /// Replaces the stored value (used by optimizers and checkpoint loading).
    pub fn set_value(&self, value: Tensor) {
        self.update_value(|v| *v = value);
    }

    /// Applies `f` to the stored value in place (used by optimizers).
    pub fn update_value(&self, f: impl FnOnce(&mut Tensor)) {
        f(&mut self.0.value.write().unwrap_or_else(PoisonError::into_inner));
    }

    /// Runs reverse-mode differentiation seeded with `dL/dself = 1`.
    ///
    /// Intended for scalar losses: the seed is a ones tensor of this
    /// variable's shape.
    pub fn backward(&self) {
        let seed = Tensor::ones(self.value().dims());
        self.backward_with(seed);
    }

    /// Runs reverse-mode differentiation with an explicit seed gradient.
    ///
    /// # Panics
    ///
    /// Panics when `seed`'s shape differs from this variable's shape.
    pub fn backward_with(&self, seed: Tensor) {
        assert_eq!(
            seed.dims(),
            self.value().dims(),
            "backward seed shape mismatch"
        );
        if !self.needs_grad() {
            return;
        }
        let order = self.topo_order();
        accumulate(&self.0, seed);
        // `order` is post-order (parents before children), so iterate in
        // reverse: children first.
        for node in order.iter().rev() {
            let Some(backward) = node.0.backward.as_ref() else {
                continue;
            };
            let Some(grad) = node.grad() else {
                continue; // branch never reached by the seed
            };
            let parent_grads = backward(&grad);
            debug_assert_eq!(parent_grads.len(), node.0.parents.len());
            for (parent, pg) in node.0.parents.iter().zip(parent_grads) {
                if let Some(pg) = pg {
                    if parent.needs_grad() {
                        accumulate(&parent.0, pg);
                    }
                }
            }
            // Interior gradients are scratch space; free them eagerly.
            if !node.0.is_param {
                node.zero_grad();
            }
        }
    }

    /// Post-order (parents first) over the sub-graph that needs gradients.
    fn topo_order(&self) -> Vec<Var> {
        let mut order = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        // Iterative DFS with an explicit stack: (node, children_pushed).
        let mut stack: Vec<(Var, bool)> = vec![(self.clone(), false)];
        while let Some((var, expanded)) = stack.pop() {
            if expanded {
                order.push(var);
                continue;
            }
            if visited.contains(&var.id()) {
                continue;
            }
            visited.insert(var.id());
            stack.push((var.clone(), true));
            for p in &var.0.parents {
                if p.needs_grad() && !visited.contains(&p.id()) {
                    stack.push((p.clone(), false));
                }
            }
        }
        order
    }
}

// Every model in the workspace is built from these two; the compiler
// refuses the next `Rc` or `RefCell` inside them.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Var>();
    assert_send_sync::<Tensor>();
};

impl Node {
    fn grad_slot(&self) -> MutexGuard<'_, Option<Tensor>> {
        self.grad.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn accumulate(node: &Node, grad: Tensor) {
    let mut slot = node.grad_slot();
    match slot.as_mut() {
        Some(existing) => {
            existing
                .add_assign(&grad)
                .expect("gradient shape stable across accumulations");
        }
        None => *slot = Some(grad),
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Var")
            .field("id", &self.0.id)
            .field("value", &*self.value())
            .field("needs_grad", &self.needs_grad())
            .field("parents", &self.0.parents.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_receives_gradient() {
        let x = Var::parameter(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let y = x.mul(&x).unwrap().sum();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[6.0]);
    }

    #[test]
    fn constant_receives_no_gradient() {
        let x = Var::parameter(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let c = Var::constant(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let y = x.mul(&c).unwrap().sum();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0]);
        assert!(c.grad().is_none());
    }

    #[test]
    fn gradient_accumulates_across_backward_calls() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let y1 = x.scale(2.0).sum();
        y1.backward();
        let y2 = x.scale(3.0).sum();
        y2.backward();
        assert_eq!(x.grad().unwrap().data(), &[5.0]);
        x.zero_grad();
        assert!(x.grad().is_none());
    }

    #[test]
    fn diamond_graph_accumulates_once_per_path() {
        // y = x + x   => dy/dx = 2
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let y = x.add(&x).unwrap().sum();
        y.backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // 2_000 chained adds exercise the iterative topo sort.
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let mut y = x.clone();
        for _ in 0..2_000 {
            y = y.add_scalar(1.0);
        }
        let loss = y.sum();
        loss.backward();
        assert_eq!(x.grad().unwrap().data(), &[1.0]);
    }

    #[test]
    fn clone_shares_storage() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let x2 = x.clone();
        x.update_value(|t| t.data_mut()[0] = 9.0);
        assert_eq!(x2.value().data(), &[9.0]);
        assert_eq!(x.id(), x2.id());
    }

    #[test]
    fn backward_on_constant_is_noop() {
        let c = Var::constant(Tensor::scalar(5.0));
        c.backward(); // must not panic
        assert!(c.grad().is_none());
    }

    #[test]
    fn interior_grads_are_freed_but_params_kept() {
        let x = Var::parameter(Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let mid = x.scale(3.0);
        let loss = mid.sum();
        loss.backward();
        assert!(mid.grad().is_none(), "interior grad should be freed");
        assert_eq!(x.grad().unwrap().data(), &[3.0]);
    }

    #[test]
    fn no_grad_records_no_tape_and_backward_is_a_noop() {
        let w = Var::parameter(Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let b = Var::parameter(Tensor::from_vec(vec![1.0, 1.0], &[2]).unwrap());
        let recorded = w.mul(&w).unwrap().add(&b).unwrap().sum();
        let y = no_grad(|| {
            let mid = w.mul(&w).unwrap();
            assert!(!mid.needs_grad());
            assert!(mid.0.parents.is_empty() && mid.0.backward.is_none());
            mid.add(&b).unwrap().sum()
        });
        assert!(!y.needs_grad());
        assert!(y.0.parents.is_empty() && y.0.backward.is_none());
        assert_eq!(y.value().data(), recorded.value().data(), "same value");
        y.backward(); // must not panic
        assert!(w.grad().is_none() && b.grad().is_none());
        // The parameters themselves are untouched by the scope.
        assert!(w.needs_grad() && w.is_parameter());
    }

    #[test]
    fn no_grad_nests_and_restores_the_outer_state() {
        assert!(grad_enabled());
        no_grad(|| {
            no_grad(|| assert!(!grad_enabled()));
            assert!(!grad_enabled(), "inner exit keeps the outer scope off");
        });
        assert!(grad_enabled());
    }

    #[test]
    fn no_grad_restores_recording_after_a_panic() {
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        no_grad(|| {
            let caught = std::panic::catch_unwind(|| no_grad(|| panic!("inside")));
            assert!(caught.is_err());
            assert!(!grad_enabled(), "back to the enclosing scope's state");
        });
        let caught = std::panic::catch_unwind(|| no_grad(|| panic!("inside")));
        assert!(caught.is_err());
        assert!(grad_enabled(), "recording is back on");
        x.scale(2.0).sum().backward();
        assert_eq!(x.grad().unwrap().data(), &[2.0]);
    }

    #[test]
    fn no_grad_is_per_thread() {
        // A fork inside the scope records unless it enters `no_grad` itself.
        let x = Var::parameter(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        no_grad(|| {
            let spawned = std::thread::scope(|s| {
                s.spawn(|| (grad_enabled(), x.scale(2.0).needs_grad()))
                    .join()
                    .unwrap()
            });
            assert_eq!(spawned, (true, true));
            assert!(!x.scale(2.0).needs_grad());
        });
    }
}
