(** Exact rational feasibility solver — revised simplex over a
    factorized basis, with a warm-startable incremental interface.

    This is the LP kernel of the reproduction's SoPlex substitute: the
    paper's `GetCoeffsUsingLP` (§3.4) asks only for *a* feasible point of
    the system [l <= P(r_i) <= h_i], so the solver exposes feasibility of
    [A x <= b] over free variables.  Arithmetic is exact throughout
    (Bland's rule, so no cycling); an iteration cap turns pathological
    instances into a clean [Unknown].

    Two entry points share the factorized-basis machinery:

    - {!feasible} — a one-shot cold solve.  It replays the dense
      two-phase tableau pivot for pivot (same column order, same Bland
      entering choice, same division-free ratio test and tie-breaks), so
      its answers — including the returned point, not just the verdict —
      are bit-identical to the tableau's.  Only the data structure
      differs: a basis factorization replaces the full m x (2n+m+a)
      tableau update.
    - {!state} / {!solve} — an incremental system that keeps its basis
      across {!add_row} / {!set_rhs} edits and repairs it with a
      dual-simplex pass instead of re-solving from scratch.  Warm solves
      agree with cold solves on the Feasible/Infeasible verdict (both are
      exact), but may return a different feasible point. *)

type outcome =
  | Feasible of Rational.t array  (** a point satisfying every row *)
  | Infeasible  (** proven: no point exists (exact Farkas certificate) *)
  | Unknown  (** iteration cap hit; treat as "no polynomial found" *)

(** [feasible ~a ~b] decides [exists x. a x <= b] with [x] free.
    [a] is an [m x n] dense matrix (rows of equal length [n]).
    Revised simplex; answers replay the dense two-phase tableau exactly.
    @raise Invalid_argument on ragged or empty input. *)
val feasible : a:Rational.t array array -> b:Rational.t array -> outcome

(** Pivot cap for a single solve, cold or warm (default 20000). *)
val max_pivots : int ref

(** Refactorize after this many eta updates to the basis factorization
    (default 32): bounds both the eta-file application cost and rational
    entry growth. *)
val refactor_interval : int ref

(** {1 Warm-started incremental interface}

    A {!state} holds rows [a_i x <= b_i] over [nv] free structural
    variables plus one slack per row, and keeps the current basis (and
    its factorization) across edits.  {!solve} runs a dual-simplex
    repair from the current basis: rows appended by {!add_row} and
    right-hand sides moved by {!set_rhs} each leave the basis valid and
    usually a handful of pivots from optimal, which is what makes
    Algorithm 4's grow-and-refine loops cheap. *)

type state

(** [create ~nv] is an empty system over [nv] free variables. *)
val create : nv:int -> state

val nrows : state -> int

(** [add_row st a b] appends the constraint [a x <= b] and returns its
    row index.  The new row's slack enters the basis, so the previous
    basis (and factorization) stays valid.  O(m) bookkeeping; no solve.
    @raise Invalid_argument when [a] has length <> [nv]. *)
val add_row : state -> Rational.t array -> Rational.t -> int

(** [set_rhs st i b] replaces row [i]'s right-hand side.  Loosening and
    tightening are both fine; basic values are refreshed lazily at the
    next {!solve}. *)
val set_rhs : state -> int -> Rational.t -> unit

(** [drop_rows st ~keep] deletes every row [i] with [keep i = false].
    Surviving rows are renumbered compactly in order.  Rows whose slack
    is tight (nonbasic) are first pivoted out of the basis, so the
    retained basis stays nonsingular — this is the sibling-reuse path
    after an Algorithm-3 split, where a child sub-domain keeps the
    parent basis minus the out-of-range rows. *)
val drop_rows : state -> keep:(int -> bool) -> unit

(** Deep copy (shares nothing mutable); the clone can diverge freely. *)
val copy : state -> state

(** [solve st] repairs primal feasibility from the current basis by
    dual simplex (Bland's least-index rule) and returns the verdict.
    [Feasible x] gives the structural point (slacks dropped); [Unknown]
    means the pivot cap was hit — the caller should fall back to a cold
    {!feasible} solve.  The state stays consistent in every case and
    later calls resume where the repair stopped. *)
val solve : state -> outcome

(** {1 Instrumentation}

    Process-wide counters (the LP runs in the generator's sequential
    phase; not domain-safe).  {!Rlibm.Stats} snapshots them around each
    generation run. *)

type counters = {
  mutable cold_solves : int;  (** {!feasible} calls *)
  mutable warm_solves : int;  (** {!solve} calls *)
  mutable primal_pivots : int;  (** phase-1 pivots in cold solves *)
  mutable dual_pivots : int;  (** repair pivots in warm solves *)
  mutable refactorizations : int;  (** basis factorizations built *)
  mutable warm_fallbacks : int;  (** warm [Unknown]s retried cold *)
}

val counters : counters

(** An independent copy of the current counter values. *)
val snapshot : unit -> counters

val reset_counters : unit -> unit
