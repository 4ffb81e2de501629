//! End-to-end benchmark of the MRL99 quantile sketch: the `mrl-quantiles`
//! CLI over generated files and an online `UnknownN` with queries mixed
//! into its inserts, each answer checked against the exact rank and each
//! layer's time attributed from outside. See `README.md`.

pub mod exact;
pub mod measure;
pub mod speed;
pub mod workload;
