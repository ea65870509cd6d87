//! Umbrella crate for the `trimgrad` workspace.
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`), which import the workspace
//! crates directly; library users should depend on `trimgrad` (the core
//! crate). It exports nothing: the library target exists so that the
//! package's examples and tests build against its dependencies.
