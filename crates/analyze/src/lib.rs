//! `fracas-analyze` — static liveness/ACE analysis and trace-exact
//! fault-space pruning for FRACAS campaigns.
//!
//! The crate answers one question two ways: *which register bits, at
//! which moments, provably cannot matter?*
//!
//! 1. **Statically** ([`mod@cfg`] → [`liveness`] → [`avf`]): recover the
//!    control-flow graph of an assembled text section, solve backward
//!    may-liveness over GPRs, FPRs and the NZCV flags, and fold the
//!    solution over the golden run's committed-PC trace into
//!    per-register **dead windows** and a **static AVF estimate** — the
//!    classical ACE bound on how often a register's bits are
//!    architecturally required. This feeds the `stats_avf` report,
//!    which correlates the bound against dynamic register criticality
//!    measured by fault injection.
//! 2. **Dynamically** ([`prune`]): a per-workload oracle that replays
//!    the golden event trace exactly — commits, context saves,
//!    dispatches, kernel context writes — and decides individual fault
//!    outcomes without execution wherever the flipped bits provably die
//!    (`Vanished`) or provably survive unread until exit
//!    (`SilentResidue` → ONA). This is the decided tier of
//!    `fracas-inject`'s `prune_classes` mode: static dead windows alone
//!    are unsound under a context-switching kernel (a dead register still gets
//!    copied into a thread's saved context and may resurface
//!    elsewhere), so the static side estimates and the dynamic side
//!    decides.
//!
//! Since PR 8 the same oracle also decides **instruction-memory**
//! faults ([`textfault`]): a text-bit flip's only observable channel is
//! instruction fetch of the struck word, so decode equivalence plus
//! trace fetch-reachability prove most text flips Vanished outright,
//! and the first corrupted fetch serves as an exact interval
//! fingerprint for the rest. The [`mod@cfg`] layer doubles as the
//! static cross-check of fetch reachability.
//!
//! Soundness is asymmetric by design: USE sets may over-approximate (a
//! spurious use only makes the oracle abstain and the AVF bound looser
//! — real execution takes over), but DEF sets list only registers
//! *completely* overwritten on every execution of the instruction (a
//! spurious def would prune a live fault). Since PR 4 the keeper of
//! that contract is no longer a hand-written match in this crate:
//! [`usedef`] and [`mod@cfg`] are thin projections of the declarative
//! effects layer in [`fracas_isa::effects`] — the same table the
//! interpreter is conformance-checked against at runtime
//! (`FRACAS_CHECK_EFFECTS=1` in `fracas-cpu`). The analyzer's model of
//! the machine and the machine itself are therefore provably the same
//! model, not two matches that happen to agree; everything above
//! inherits its guarantees from that single table's asymmetric
//! contract.

pub mod avf;
pub mod cfg;
pub mod intervals;
pub mod liveness;
pub mod prune;
pub mod skipfault;
pub mod textfault;
pub mod usedef;

pub use avf::{dead_windows, static_avf, StaticAvf};
pub use cfg::{writes_pc, BasicBlock, Cfg};
pub use intervals::Fingerprint;
pub use liveness::{all_regs, Liveness};
pub use prune::{PruneOracle, PruneTarget, PruneVerdict};
pub use skipfault::{analyze_skips, skip_class, SkipClass, SkipComposition};
pub use textfault::{analyze_text, cfg_reachable_words, flip_class, FlipClass, TextComposition};
pub use usedef::{cond_reads, use_def, RegSet, UseDef, FLAG_ALL, FLAG_C, FLAG_N, FLAG_V, FLAG_Z};
