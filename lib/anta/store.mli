(** Variable store of a timed automaton.

    The paper's automata keep two kinds of variables: {e clock variables}
    written by [x := now] transitions (holding local-time instants), and —
    implicitly, to forward certificates and promises — the payloads of
    received messages. The store holds both. Reads of unset variables raise
    [Not_found]-style errors with the variable name, which the
    well-formedness checker ({!Automaton.check}) rules out statically for
    conforming automata.

    Variables live in slot arrays. The executor addresses them by the slot
    indices {!Automaton.make} assigned; the by-name functions serve
    protocol closures and resolve a name against the store's small
    variable table (a name outside the table extends it). *)

type 'msg t

val set_clock : 'msg t -> string -> Sim.Sim_time.t -> unit
val clock : 'msg t -> string -> Sim.Sim_time.t
(** Raises [Invalid_argument] naming the variable if unset. *)

val set_data : 'msg t -> string -> 'msg -> unit
val data : 'msg t -> string -> 'msg
val clock_vars : 'msg t -> string list
(** Names of the clock variables that are set, sorted. *)

val data_vars : 'msg t -> string list

(** {1 Slot access (the executor's view)} *)

val of_vars : clocks:string array -> datas:string array -> 'msg t
(** A store whose clock slot [i] is named [clocks.(i)] and whose data slot
    [i] is named [datas.(i)], all unset. The arrays are shared, never
    written. *)

val reset : 'msg t -> clocks:string array -> datas:string array -> unit
(** [reset t ~clocks ~datas] makes [t] what {!of_vars} returns for the
    same tables: every variable unset. A store whose tables are still
    those keeps its slot arrays; one that a by-name write extended gets
    new ones. *)

val set_clock_at : 'msg t -> int -> Sim.Sim_time.t -> unit
val clock_at : 'msg t -> int -> Sim.Sim_time.t
(** Raises [Invalid_argument] naming the variable if unset. *)

val set_data_at : 'msg t -> int -> 'msg -> unit
