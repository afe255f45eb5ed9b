//! Campaign benchmark for the TurboFuzz reproduction: three workloads
//! driven through `tf_fuzz::CampaignDriver`, measured end to end, and a
//! separate traced run that times each layer from outside through its
//! public functions. See `README.md` in this package.

pub mod cpu;
pub mod probe;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workload;
