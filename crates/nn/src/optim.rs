//! Parameter optimizers: SGD (with optional momentum) and Adam.

use serde::{Deserialize, Serialize};

use crate::Param;

/// An optimizer configuration plus its step counter.
///
/// Per-parameter state (momentum / Adam moments) lives inside each
/// [`Param`], so one optimizer value can drive any number of parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Optimizer {
    /// Stochastic gradient descent with optional momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient (0 disables momentum).
        momentum: f32,
    },
    /// Adam (Kingma & Ba, 2015) with bias correction.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Numerical stabilizer.
        eps: f32,
        /// Step counter (starts at 0; incremented by [`Optimizer::step`]).
        t: u64,
    },
}

impl Optimizer {
    /// SGD with the given learning rate and no momentum.
    pub fn sgd(lr: f32) -> Self {
        Optimizer::Sgd { lr, momentum: 0.0 }
    }

    /// Adam with the canonical hyper-parameters (lr 1e-3, betas 0.9/0.999).
    pub fn adam(lr: f32) -> Self {
        Optimizer::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
        }
    }

    /// Multiplies the learning rate by `factor` (learning-rate schedules).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn scale_lr(&mut self, factor: f32) {
        assert!(factor > 0.0, "factor must be positive");
        match self {
            Optimizer::Sgd { lr, .. } | Optimizer::Adam { lr, .. } => *lr *= factor,
        }
    }

    /// The current learning rate.
    pub fn lr(&self) -> f32 {
        match self {
            Optimizer::Sgd { lr, .. } | Optimizer::Adam { lr, .. } => *lr,
        }
    }

    /// Applies one update to every parameter using its accumulated gradient,
    /// then zeroes the gradients.
    pub fn step(&mut self, params: Vec<&mut Param>) {
        let ctx = self.prepare();
        for p in params {
            ctx.apply(p);
        }
    }

    /// Advances the step counter once and captures the coefficients for
    /// this step as a [`StepCtx`].
    ///
    /// Together with [`StepCtx::apply`] this is the allocation-free
    /// equivalent of [`Optimizer::step`]: the training loop calls
    /// `prepare()` once per batch and then applies the context to each
    /// parameter as it visits them, instead of collecting `Vec<&mut
    /// Param>`. The arithmetic is identical.
    pub fn prepare(&mut self) -> StepCtx {
        match self {
            Optimizer::Sgd { lr, momentum } => StepCtx::Sgd {
                lr: *lr,
                momentum: *momentum,
            },
            Optimizer::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
            } => {
                *t += 1;
                StepCtx::Adam {
                    lr: *lr,
                    beta1: *beta1,
                    beta2: *beta2,
                    eps: *eps,
                    bc1: 1.0 - beta1.powi(*t as i32),
                    bc2: 1.0 - beta2.powi(*t as i32),
                }
            }
        }
    }
}

/// The per-step coefficients captured by [`Optimizer::prepare`], shared
/// by every parameter updated in that step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepCtx {
    /// SGD coefficients.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient (0 disables momentum).
        momentum: f32,
    },
    /// Adam coefficients with the step's bias corrections baked in.
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Numerical stabilizer.
        eps: f32,
        /// First-moment bias correction `1 − β₁ᵗ`.
        bc1: f32,
        /// Second-moment bias correction `1 − β₂ᵗ`.
        bc2: f32,
    },
}

impl StepCtx {
    /// Updates one parameter from its accumulated gradient, then zeroes
    /// the gradient. Bitwise-identical to the update inside
    /// [`Optimizer::step`].
    pub fn apply(&self, p: &mut Param) {
        p.ensure_training_buffers();
        match *self {
            StepCtx::Sgd { lr, momentum } => {
                if momentum == 0.0 {
                    for (v, &g) in p.value.iter_mut().zip(&p.grad) {
                        *v -= lr * g;
                    }
                } else {
                    for i in 0..p.value.len() {
                        p.m[i] = momentum * p.m[i] + p.grad[i];
                        p.value[i] -= lr * p.m[i];
                    }
                }
            }
            StepCtx::Adam {
                lr,
                beta1,
                beta2,
                eps,
                bc1,
                bc2,
            } => {
                for i in 0..p.value.len() {
                    let g = p.grad[i];
                    p.m[i] = beta1 * p.m[i] + (1.0 - beta1) * g;
                    p.v[i] = beta2 * p.v[i] + (1.0 - beta2) * g * g;
                    let mhat = p.m[i] / bc1;
                    let vhat = p.v[i] / bc2;
                    p.value[i] -= lr * mhat / (vhat.sqrt() + eps);
                }
            }
        }
        p.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x - 3)^2 by feeding the analytic gradient.
    fn optimize_quadratic(mut opt: Optimizer, steps: usize) -> f32 {
        let mut p = Param::new(vec![0.0]);
        for _ in 0..steps {
            p.grad[0] = 2.0 * (p.value[0] - 3.0);
            opt.step(vec![&mut p]);
        }
        p.value[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = optimize_quadratic(Optimizer::sgd(0.1), 100);
        assert!((x - 3.0).abs() < 1e-3, "sgd ended at {x}");
    }

    #[test]
    fn sgd_momentum_converges_on_quadratic() {
        let x = optimize_quadratic(
            Optimizer::Sgd {
                lr: 0.05,
                momentum: 0.9,
            },
            200,
        );
        assert!((x - 3.0).abs() < 1e-2, "momentum sgd ended at {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = optimize_quadratic(Optimizer::adam(0.1), 500);
        assert!((x - 3.0).abs() < 1e-2, "adam ended at {x}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = Param::new(vec![1.0, 2.0]);
        p.grad = vec![0.5, -0.5];
        Optimizer::sgd(0.1).step(vec![&mut p]);
        assert_eq!(p.grad, vec![0.0, 0.0]);
    }

    #[test]
    fn scale_lr_applies_to_both_optimizers() {
        let mut sgd = Optimizer::sgd(0.1);
        sgd.scale_lr(0.5);
        assert!((sgd.lr() - 0.05).abs() < 1e-9);
        let mut adam = Optimizer::adam(1e-3);
        adam.scale_lr(0.1);
        assert!((adam.lr() - 1e-4).abs() < 1e-9);
    }

    #[test]
    fn adam_increments_step_counter() {
        let mut opt = Optimizer::adam(0.001);
        let mut p = Param::new(vec![0.0]);
        p.grad[0] = 1.0;
        opt.step(vec![&mut p]);
        match opt {
            Optimizer::Adam { t, .. } => assert_eq!(t, 1),
            _ => unreachable!(),
        }
    }
}
