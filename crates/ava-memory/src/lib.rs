//! # ava-memory — memory-system substrate for the AVA reproduction
//!
//! The paper evaluates its vector processor attached to a conventional
//! memory hierarchy (32 KB L1 caches, a 1 MB L2 with 12-cycle latency and
//! 512-bit lines, and DDR3 main memory; Table II). This crate provides that
//! substrate:
//!
//! * [`MainMemory`] — a sparse, byte-addressable *functional* memory with a
//!   bump allocator, used both as the simulation's backing store and as the
//!   home of the AVA Memory Vector Register File (M-VRF). Its storage is a
//!   page table indexed directly by page number, so a 64-bit word within
//!   one 4 KiB page costs one table index and one slice access. Writes
//!   must stay below 16 GiB; a wilder address panics.
//! * [`Cache`] — a set-associative, write-back/write-allocate cache model
//!   with LRU replacement and hit/miss statistics.
//! * [`Dram`] — a fixed-latency, bandwidth-limited main-memory timing model.
//! * [`MemoryHierarchy`] — composes the functional memory with an L1D, a
//!   shared L2 and DRAM, and answers both functional accesses and timing
//!   queries ("how many cycles does a 128-element unit-stride access cost
//!   through the L2 port?").
//!
//! ```
//! use ava_memory::{MemoryHierarchy, HierarchyConfig};
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
//! let buf = mem.allocate(1024);
//! mem.write_f64(buf, 3.5);
//! assert_eq!(mem.read_f64(buf), 3.5);
//! let t = mem.vector_access(buf, 16 * 8, false);
//! assert!(t.total_cycles >= 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod hierarchy;
pub mod mem;
pub mod port;
pub mod stats;

pub use cache::{Cache, CacheConfig};
pub use dram::{Dram, DramConfig};
pub use hierarchy::{AccessTiming, HierarchyConfig, MemoryHierarchy};
pub use mem::MainMemory;
pub use port::BusPort;
pub use stats::{CacheStats, MemoryStats};
