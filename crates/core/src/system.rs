//! The discrete-event CMP simulator.

mod engine;
mod l2;
mod queue;

pub use engine::System;

