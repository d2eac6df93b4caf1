//! # ce-storage — columnar tables with exact cardinality evaluation
//!
//! The ground-truth substrate of the reproduction: dictionary-coded columnar
//! tables, conjunctive point/range predicates, exact `COUNT(*)` via naive
//! scans and a per-code bitmap index, and star-schema semi-join counting for
//! the multi-table (DSB/JOB stand-in) workloads.
//!
//! ```
//! use ce_storage::{ColumnKind, ConjunctiveQuery, Predicate, Schema, Table};
//!
//! let schema = Schema::from_specs(&[("color", 4, ColumnKind::Categorical)]);
//! let table = Table::new(schema, vec![vec![0, 1, 1, 2, 3]]);
//! let q = ConjunctiveQuery::new(vec![Predicate::eq(0, 1)]);
//! assert_eq!(table.count(&q), 2);
//! ```

#![warn(missing_docs)]

mod index;
mod join;
mod predicate;
mod schema;
mod table;

pub use index::BitmapIndex;
pub use join::{StarQuery, StarSchema};
pub use predicate::{ConjunctiveQuery, Op, Predicate};
pub use schema::{ColumnKind, ColumnMeta, Schema};
pub use table::Table;
