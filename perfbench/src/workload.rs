//! The workload interface the run loop drives.

use crate::cx::{Abort, Cx};

/// A workload: a recipe for episodes of fixed work.
pub trait Workload {
    /// One episode's live state.
    type Episode: Episode;

    /// Ops one episode attempts.
    fn ops_per_episode(&self) -> u64;

    /// Builds an episode: worlds, contexts, processes and warm-up.
    fn setup(&self, cx: &mut Cx) -> Result<Self::Episode, Abort>;
}

/// An episode of fixed work, run step by step.
pub trait Episode {
    /// Runs one step of the timed loop; `Ok(false)` once the episode's
    /// work is done.
    fn step(&mut self, cx: &mut Cx) -> Result<bool, Abort>;

    /// After the timed loop: end-of-episode output checks (returning
    /// the first one that failed) and, when `cx.read_counts`, the work
    /// counts. Consumes the episode, so tearing it down is part of the
    /// episode's wall time.
    fn finish(self, cx: &mut Cx) -> Result<(), String>;
}
