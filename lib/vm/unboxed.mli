(** The unboxed execution engine.

    Executes a pre-decoded kernel ({!Decode.t}) over raw 64-bit words
    ({!Ustate.words}, bit-punned between float64 and int64 views of the
    same memory) with parallel per-element type-tag bytes — no
    constructor matching, no boxing, no conversion calls, no allocation
    in the hot loop; an injected bit flip is a single XOR against the
    register word. It is the one production interpreter: the golden
    run ({!Golden.run}), every replay, sensitivity sampling, the prover's
    golden recording and taint walk, and the optimizer's constant
    folding all run through {!step}. The test suite's boxed oracle
    ([test/oracle/]) is an independent interpreter: for identical inputs
    the two produce bit-identical statuses, executed counts, buffer
    contents, and traces (enforced by the differential tests). *)

exception Halted
(** Raised by {!step} on [Halt]. *)

val step :
  int array ->
  int64 array ->
  Ustate.words ->
  Ustate.bits ->
  Bytes.t ->
  Ustate.words array ->
  Bytes.t array ->
  base:int ->
  pc:int ->
  int
(** [step code imm regs iregs rtags buffers btags ~base ~pc] is the
    engine's one dispatch: it executes the instruction whose packed
    fields ({!Decode.pack}) start at [code.(base)], as static
    instruction [pc], and returns the next pc. [regs] is the register
    file, [iregs] the same memory as int64 ({!Ustate.as_bits}), [rtags]
    its tags; [imm.(pc)] is read by [Iconst]/[Fconst]; [buffers]/[btags]
    are the bound buffers, read only by [Load]/[Store]. Register indices
    are not checked (decode-time validation licenses that); a buffer
    index is, and traps [Out_of_bounds]. Raises {!Machine.Trap} on a
    trap and {!Halted} on [Halt]. [exec]'s loop runs it over
    [d.packed]; the prover's recording runs it over the golden
    schedule; an encoding fault, the prover's taint walk and constant
    folding run it over a one-instruction scratch. *)

val exec :
  Decode.t ->
  regs:Ustate.words ->
  rtags:Bytes.t ->
  scal_words:Ustate.words ->
  scal_tags:Bytes.t ->
  buffers:Ustate.words array ->
  btags:Bytes.t array ->
  budget:int ->
  ?injection:Machine.injection ->
  ?burst:int ->
  ?trace:Trace.t ->
  unit ->
  Machine.run
(** [exec d ~regs ~rtags ...] runs the decoded kernel over the unboxed
    buffer views [buffers]/[btags] (indexed by kernel slot, mutated in
    place). [regs]/[rtags] are a caller-owned register scratch of length
    at least [d.nregs]; the first [d.nregs] entries are reset and the
    scalar words [scal_words]/[scal_tags] staged into registers 0.. on
    entry, so one scratch serves any number of runs (the zero-copy
    workspace contract). The caller is responsible for shape agreement
    with [d]; register indices are not bounds-checked at runtime
    (decode-time validation licenses that), while data-dependent buffer
    indices keep their checks and trap [Out_of_bounds]. Two slots bound
    to one buffer must be given the same views: they then alias, as the
    program's semantics require. *)
