(** Timed automata — the specification formalism of the paper.

    An automaton has named states of two kinds, exactly as in Figure 2 of
    the paper:

    - {e output} ("grey") states: the automaton spends a bounded amount of
      time computing, then performs the action [s(id, m)] of sending message
      [m] to participant [id], and moves to the next state;
    - {e input} ("white") states: the automaton stays there — possibly
      forever — until one of its outgoing transitions becomes enabled, and
      then takes it immediately. A transition is enabled by the receipt of a
      matching message [r(id, m)], or by its time-out guard
      [now >= x + a] becoming true on the local clock.

    Transitions may carry assignments [x := now] recording the local time at
    which they were taken, and may stash the received message in a data
    variable (that is how a certificate χ gets forwarded). {e Final} states
    mark termination.

    Side effects on the surrounding world (ledger operations, domain
    observations) are attached to transitions as [act] callbacks receiving
    the process's engine context — this keeps the automaton structure
    declarative and statically checkable while letting escrows actually move
    money when they take a step.

    An automaton is a {e template}: its type parameter ['i] is the instance
    it runs for. Guards ([accept]), acts and output [message]s receive the
    instance the automaton is dispatched with ({!Executor.handlers} binds
    one), so one compiled automaton serves every run of the same shape
    while amounts, books, keys and any per-run mutable state live in the
    instance. *)

type state = string

type sender = Pool.sender = One of int | Among of int array | Any
(** Who a receive listens to: one pid, any pid of a set, or anyone. *)

type ('i, 'msg, 'obs) guard =
  | Receive of { from_ : sender; describe : string; accept : 'i -> 'msg -> bool }
      (** [r(from_, m)] for messages satisfying [accept]. *)
  | Deadline of { base : string; offset : Sim.Sim_time.t; timer : string option }
      (** [now >= base + offset] on the local clock; [base] is a clock
          variable that must have been assigned on every path reaching this
          state. A named [timer] is one deadline of the process's life: it
          must count from a clock that no transition assigns once the
          timer is armed (a birth clock, or one set on the way to the
          first state that arms it), with the same offset wherever it
          appears; it stays armed across states that share it and fires
          at most once. *)
  | At of { local : Sim.Sim_time.t }
      (** [now >= local] on the local clock: an absolute deadline, which
          reads no clock variable. *)

type ('i, 'msg, 'obs) branch = {
  guard : ('i, 'msg, 'obs) guard;
  save_msg : string option;  (** stash the received message in this data var *)
  save_now : string list;  (** [x := now] assignments *)
  b_act :
    'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg option -> unit;
      (** side effects; the ['msg option] is the received message (None for
          deadline branches) *)
  next : state;
}

type ('i, 'msg, 'obs) node =
  | Output of {
      to_ : int;
      absolute : bool;  (** [to_] is an engine pid, outside the block *)
      message : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg;
      o_act : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit;
      next : state;
    }
  | Input of ('i, 'msg, 'obs) branch list
  | Final of {
      f_act : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit;
    }

type ('i, 'msg, 'obs) t

val make :
  name:string ->
  ?born:string list ->
  initial:state ->
  nodes:(state * ('i, 'msg, 'obs) node) list ->
  unit ->
  ('i, 'msg, 'obs) t
(** [born] are clock variables assigned [now] when the process starts.
    Raises [Invalid_argument] on duplicate state names or an unknown
    initial state. Deeper checks are in {!check}. *)

val name : ('i, 'msg, 'obs) t -> string
val born : ('i, 'msg, 'obs) t -> string list
val node : ('i, 'msg, 'obs) t -> state -> ('i, 'msg, 'obs) node option
val states : ('i, 'msg, 'obs) t -> state list

(** {1 Compiled form (the executor's view)}

    {!make} compiles the declared nodes once: states become dense ints in
    declaration order (index {!initial_index} is the initial state), each
    transition target is resolved to its int, clock and data variables
    become {!Store} slots (see {!clock_names}, {!data_names}), and each
    deadline branch [i] of input state [s] carries its engine timer label
    ["s#i"]. A target naming no declared state gets an index past the
    declared ones whose node is [C_missing]; {!check} reports it as
    {!Unknown_target}. A named timer's label is its name. *)

type ('i, 'msg, 'obs) cguard =
  | C_receive of { from_ : sender; accept : 'i -> 'msg -> bool }
  | C_deadline of { base : int; offset : Sim.Sim_time.t; label : string; named : bool }
      (** [base] is a clock slot, or [-1] for an absolute deadline ([At]) *)

type ('i, 'msg, 'obs) cbranch = {
  cguard : ('i, 'msg, 'obs) cguard;
  c_save_msg : int;  (** data slot, or [-1] *)
  c_save_now : int array;  (** clock slots *)
  c_act :
    'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg option -> unit;
  c_next : int;
}

type ('i, 'msg, 'obs) cnode =
  | C_output of {
      to_ : int;
      absolute : bool;
      message : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg;
      o_act : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit;
      next : int;
    }
  | C_input of ('i, 'msg, 'obs) cbranch array
  | C_final of {
      f_act : 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit;
    }
  | C_missing  (** an unknown transition target *)

val initial_index : ('i, 'msg, 'obs) t -> int
val state_name : ('i, 'msg, 'obs) t -> int -> state
val cnode : ('i, 'msg, 'obs) t -> int -> ('i, 'msg, 'obs) cnode
val clock_names : ('i, 'msg, 'obs) t -> string array
val data_names : ('i, 'msg, 'obs) t -> string array

val arms_named : ('i, 'msg, 'obs) cbranch array -> string -> bool
(** Whether the branches arm the named timer [label], which a state
    entered from them leaves armed, neither set again nor cancelled. *)

val match_receive : ('i, 'msg, 'obs) cbranch array -> 'i -> 'msg Pool.t -> int
(** The receive transition an input state fires on its pending pool, with
    guards read against the instance:
    branch order is the priority, and within one branch the pool is
    scanned oldest first. Returns the branch index, with the matched
    message left for {!Pool.take_hit}, or [-1]. The executor and
    {!Conformance} both fire receives through this one function. *)

(** {1 Well-formedness — the executable core of property C}

    Property C (consistency) demands that each participant can actually
    abide by the protocol: every prescribed step must be executable. For an
    automaton this means: all transition targets exist; every input state
    has at least one branch; every deadline guard reads a clock variable
    assigned on {e every} path from the initial state to that guard; and a
    final state is reachable. *)

type check_error =
  | Unknown_target of { from_ : state; target : state }
  | Empty_input of state
  | Unassigned_clock of { at : state; var : string }
  | No_final_reachable
  | Unreachable_state of state

val check : ('i, 'msg, 'obs) t -> (unit, check_error list) result
val pp_check_error : Format.formatter -> check_error -> unit

(** {1 Builders} *)

val output :
  ?absolute:bool ->
  to_:int ->
  ?act:('i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit) ->
  message:('i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg) ->
  next:state ->
  unit ->
  ('i, 'msg, 'obs) node

val input : ('i, 'msg, 'obs) branch list -> ('i, 'msg, 'obs) node

val final :
  ?act:('i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit) ->
  unit ->
  ('i, 'msg, 'obs) node

val on_receive :
  from_:sender ->
  ?describe:string ->
  accept:('i -> 'msg -> bool) ->
  ?save_msg:string ->
  ?save_now:string list ->
  ?act:
    ('i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg option -> unit) ->
  next:state ->
  unit ->
  ('i, 'msg, 'obs) branch

val on_deadline :
  base:string ->
  offset:Sim.Sim_time.t ->
  ?timer:string ->
  ?save_now:string list ->
  ?act:
    ('i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg option -> unit) ->
  next:state ->
  unit ->
  ('i, 'msg, 'obs) branch

val on_local_time :
  at:Sim.Sim_time.t ->
  act:('i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg option -> unit) ->
  next:state ->
  ('i, 'msg, 'obs) branch
(** The [At] guard, with no assignment. *)

(** {1 Edits}

    A deviant participant is defined by the protocol it departs from: an
    {e edit} of the honest automaton, built from its nodes. A {e stall} is
    the input state {!stall}, with no branch, where an edited automaton
    waits forever, arming no timer. *)

val stall : state

val rebuild :
  ?initial:state ->
  ?changed:(state * ('i, 'msg, 'obs) node) list ->
  ?added:(state * ('i, 'msg, 'obs) node) list ->
  ('i, 'msg, 'obs) t ->
  ('i, 'msg, 'obs) t
(** The automaton with the nodes of [changed] in place of its own, the
    nodes of [added] and the {!stall} appended, started at [initial]
    (default: its own initial state). *)

val redirect :
  ('i, 'msg, 'obs) t -> state -> state -> (state * ('i, 'msg, 'obs) node) option
(** [redirect auto st next]: output state [st] going on to [next], for
    {!rebuild}'s [changed]; [None] if [st] is no output state. *)

val outputs : ('i, 'msg, 'obs) t -> state -> (state * (int * bool)) list
(** The run of output states from [st], each with its destination and
    whether that is an engine pid. *)

val script :
  string ->
  (int * bool) list ->
  ?first:('i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> unit) ->
  ?next:state ->
  (int -> 'i -> ('msg, 'obs) Sim.Engine.ctx -> 'msg Store.t -> 'msg) ->
  (state * ('i, 'msg, 'obs) node) list
(** [script name dsts message]: output states [name ^ "0"], [name ^ "1"],
    ... sending [message to_] to each destination [(to_, absolute)] in
    turn, then [next] (default {!stall}); [first] acts before the first
    send. *)

(** {1 Rendering} *)

val to_dot : ('i, 'msg, 'obs) t -> string
(** Graphviz rendering in the visual style of the paper's Figure 2: grey
    boxes for output states, white circles for input states, double circles
    for final states. *)
