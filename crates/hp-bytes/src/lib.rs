//! # hp-bytes — a hermetic JSON encoder and parser
//!
//! The workspace builds offline with no `serde`, so this crate carries the
//! one serialisation format the simulator needs: [`json`], an append-only
//! JSON writer for the observability artifacts and a small parser that
//! reads them back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
