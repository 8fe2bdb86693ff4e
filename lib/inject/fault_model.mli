(** First-class fault models.

    A fault model decides three things, each consulted by a different layer:

    - {b what a site is} — [Site.iter_section]/[Eqclass.for_section] enumerate
      model-specific sites (register operand × bit, dynamic instruction to
      skip, encoding bit to corrupt, buffer element to flip);
    - {b what an injection does} — [Site.replay_injection] lowers a site to a
      [Replay.injection], applied bit-identically by both engines;
    - {b what the prover may decide} — the taint walk is only sound for
      register flips; every other model abstains wholesale (see
      [Prover.prove_section]).

    The model folds into [Campaign.config_hash] via {!hash_fold}, so store
    keys, checkpoint journals, and serve-cache digests never mix models. *)

type t =
  | Bitflip of { burst : int }
      (** Flip [burst] consecutive bits (mod 64) of one register operand of
          one dynamic instruction. [burst = 1] is the paper's model and the
          default. *)
  | Skip
      (** Drop one dynamic instruction: control falls through to [pc + 1]
          without executing it. Falling off the end of the kernel is a
          defined [Type_confusion] trap, never UB. *)
  | Opcode
      (** XOR one bit of one packed instruction encoding field (opcode, a, b,
          c or dst) for one dynamic execution. The corrupted tuple is
          re-validated against [Decode]'s tables; invalid encodings trap
          [Type_confusion]. *)
  | Memflip of { burst : int }
      (** Flip [burst] consecutive bits of one element of one bound buffer at
          the section entry boundary. *)

val default : t
(** [Bitflip { burst = 1 }] — hash-identical to the pre-model engine. *)

val name : t -> string
(** Parameter-free family name ([bitflip], [skip], [opcode], [memflip]);
    used for telemetry counter keys. *)

val to_string : t -> string
(** Round-trips through {!of_string}; the CLI/protocol wire form. *)

val of_string : string -> (t, string) result
(** Parses [NAME[:PARAMS]]: [bitflip], [bitflip:4] (alias [burst:4]),
    [skip], [opcode], [memflip], [memflip:2]. *)

val of_string_exn : string -> t
(** @raise Invalid_argument on parse failure. *)

val reg_burst : t -> int
(** Register-flip burst width fed to the engines' XOR path; 1 for models
    that do not flip register operands. *)

val equal : t -> t -> bool

val hash_fold : Ff_support.Hashing.t -> t -> unit
(** Fold the model into a config hash. [Bitflip { burst }] contributes
    exactly the single [add_int burst] the pre-model code did, keeping
    existing stores warm; other models use negative discriminants that no
    legal burst width can produce. *)

val builtin : t list
(** Canonical representative of each model family, exercised by
    [bench/main.exe faults]. *)
