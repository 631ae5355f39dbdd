//! # bbpim-sim — a bit-accurate bulk-bitwise PIM simulator
//!
//! This crate is the hardware substrate for the `bbpim` workspace, a
//! clean-room reproduction of *"Enabling Relational Database Analytical
//! Processing in Bulk-Bitwise Processing-In-Memory"* (Perach, Ronen,
//! Kvatinsky — SOCC 2023). It models an RRAM-based bulk-bitwise PIM
//! module used as part of a host's main memory:
//!
//! * [`crossbar::Crossbar`] — a 1024×512 memory crossbar whose cells are
//!   real bits; MAGIC-style stateful logic is executed on them.
//! * [`isa`] — the micro-operation set a PIM page controller executes
//!   (column-parallel and row-parallel `INIT`/`NOR`).
//! * [`compiler`] — predicate and arithmetic compilers that lower
//!   equality, comparison, addition, subtraction, multiplication, and the
//!   paper's Algorithm 1 multiplexer to NOR-only microprograms.
//! * [`aggcircuit`] — the paper's per-crossbar peripheral aggregation
//!   circuit (masked serial 16-bit reads through a SUM/MIN/MAX ALU).
//! * [`module::PimModule`] — huge pages (2 MB = 32 crossbars), per-page
//!   PIM controllers, an 8-chip module, and request dispatch.
//! * [`hostmem`] — the host-side view of PIM memory: 64-byte cache lines
//!   that gather the same 16-bit chunk from all 32 crossbars of a page
//!   (the paper's 32× read amplification), with a DDR4 timing model.
//! * [`hostbus`] — a single-server FIFO resource modeling contention on
//!   a shared host channel (the streaming scheduler in `bbpim-sched`
//!   serialises per-page dispatch of concurrent queries through it).
//! * [`timeline`], [`endurance`], [`area`] — simulated time, energy and
//!   peak per-chip power (the phase log), cell endurance, and chip area
//!   accounting (Table I constants, Figs. 5 and 9).
//!
//! ## Quick start
//!
//! ```
//! use bbpim_sim::config::SimConfig;
//! use bbpim_sim::module::PimModule;
//!
//! let cfg = SimConfig::default();
//! let mut module = PimModule::new(cfg).expect("Table I is consistent");
//! let pages = module.alloc_pages(1).expect("module has capacity");
//! assert_eq!(module.config().crossbars_per_page(), 32);
//! assert_eq!(module.page(pages[0]).crossbar_count(), 32);
//! ```

pub mod aggcircuit;
pub mod area;
pub mod bitmat;
pub mod compiler;
pub mod config;
pub mod crossbar;
pub mod endurance;
pub mod error;
pub mod hostbus;
pub mod hostmem;
pub mod isa;
pub mod maskwire;
pub mod module;
pub mod page;
pub mod timeline;

pub use config::SimConfig;
pub use error::SimError;
pub use module::{PimModule, XferPolicy};
