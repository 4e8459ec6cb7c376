//! Proximal Policy Optimization for discrete masked action spaces.
//!
//! The paper trains RLBackfilling "using the Proximal Policy Optimization
//! (PPO) algorithm from OpenAI Spinning Up using PyTorch" (§4.1.1). This
//! crate is that algorithm, written against the [`tinynn`] substrate:
//!
//! * [`gae`] — discounted returns and GAE(γ, λ) advantage estimation;
//! * [`buffer`] — trajectory storage ([`RolloutBuffer`]) producing
//!   normalized training batches;
//! * [`update`] — the clipped-surrogate update with KL early stopping,
//!   driving any [`ActorCritic`] implementation, and the fixed-chunk
//!   gradient reduction ([`accumulate_chunked`]) every training step uses.
//!
//! The crate is deliberately environment-agnostic: `rlbf` supplies the
//! backfilling environment and the paper's kernel policy / value networks.

pub mod buffer;
pub mod gae;
pub mod update;

pub use buffer::{Batch, RolloutBuffer, Step};
pub use gae::{discount_cumsum, gae_advantages, normalize, rewards_to_go};
pub use update::{
    accumulate_chunked, approx_kl, is_clipped, policy_grad_coef, ppo_update, ActorCritic,
    PpoConfig, UpdateStats, GRAD_CHUNK,
};
