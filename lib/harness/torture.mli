(** Crash-point torture: re-execute one checkpoint commit with an
    injected crash after the [k]-th persisted word write, for every
    [k] in [0 .. W] (or a seeded sample), recover from the region words
    alone, and demand the recovered image equal the pre-commit or
    post-commit checkpoint — never a hybrid.  The points fan out over
    {!Ft_exp.Job}s (parallel, resumable). *)

type scenario = {
  heap_words : int;
  stack_words : int;
  page_size : int;
  dirty_pages : int;  (** pages rewritten between the two commits *)
  stack_depth : int;  (** live stack words at the instrumented commit *)
  seed : int;
}

val default_scenario : scenario
(** A multi-page commit: 16 dirty pages of 64 words plus stack,
    metadata and kernel state — a couple of thousand crash points. *)

type points = All | Sample of int
(** Exhaustive, or a seeded sample always containing both endpoints. *)

type verdict =
  | Rolled_back  (** recovered image = pre-commit checkpoint *)
  | Committed  (** recovered image = post-commit checkpoint *)
  | Violation of string  (** hybrid image, or recovery itself failed *)

val measure :
  ?defect:Ft_stablemem.Vista.defect -> scenario -> int * (int array * int)
(** Run the instrumented commit uninterrupted: the number of word
    writes [W] it performs (crash points are [0..W]) and the committed
    (data image, commits counter) capture. *)

val jobs :
  ?defect:Ft_stablemem.Vista.defect ->
  points:points ->
  total_writes:int ->
  post:int array * int ->
  scenario ->
  Ft_exp.Job.t list
(** The sweep over crash points [0..total_writes] (or a seeded sample),
    in chunks of 64 points per job; [total_writes] and [post] come from
    {!measure}. *)

type report = {
  scenario : scenario;
  total_writes : int;
  explored : int;
  rolled_back : int;
  committed : int;
  violations : (int * string) list;  (** crash point, diagnosis *)
}

val of_records :
  ?defect:Ft_stablemem.Vista.defect ->
  points:points ->
  total_writes:int ->
  scenario ->
  (string -> Ft_exp.Jstore.value option) ->
  report
(** Folds the stored chunk values of {!jobs} into one report. *)

val render : report -> string
