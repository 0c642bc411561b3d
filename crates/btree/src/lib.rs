//! # ddc-btree
//!
//! One-dimensional cumulative stores: the paper's Cumulative B-Tree
//! ([`BcTree`], §4.1) — the base case of the Dynamic Data Cube's recursion
//! — its implicit blocked layout ([`BlockedBc`]; `ddc-core` runs the same
//! slice kernels inside its level slabs) and a Fenwick tree ([`Fenwick`])
//! ablation. All implement [`CumulativeStore`], so they can be compared
//! on identical inputs. (The lazy store for wide, sparsely populated
//! spaces is not here: it is the one-dimensional Dynamic Data Cube
//! itself, `ddc_core::BaseStore::Lazy`.)

#![warn(missing_docs)]
#![warn(clippy::all)]

mod bc_tree;
// Public for its slice kernels (`words_for`, `prefix`, `add`, `fill`),
// which `ddc-core` runs over face runs inside its level slabs; the
// module holds nothing else beyond `BlockedBc` and `DEFAULT_BLOCK`.
pub mod blocked;
mod fenwick;
mod store;

pub use bc_tree::{BcTree, DEFAULT_FANOUT, MIN_FANOUT};
pub use blocked::{BlockedBc, DEFAULT_BLOCK};
pub use fenwick::Fenwick;
pub use store::CumulativeStore;
