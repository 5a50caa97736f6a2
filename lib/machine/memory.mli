(** Page-granular simulated memory with demand paging.

    Reads and writes may cross page boundaries. Accessing an unmapped
    page consults the fault handler (used both for demand-loading code
    pages from the binary — CRIU does not dump clean code pages — and for
    lazy post-copy migration, where missing pages are fetched from the
    source node's page server). *)

type t

exception Segfault of int64

(** [create ()] has no pages mapped and no fault handler. *)
val create : unit -> t

(** The handler receives the page number and returns the page contents,
    or [None] to signal a true segfault. *)
val set_fault_handler : t -> (int -> bytes option) option -> unit

(** Number of pages the fault handler was invoked for (successfully). *)
val fault_count : t -> int

val map_page : t -> int -> bytes -> unit
val unmap_page : t -> int -> unit
val is_mapped : t -> int -> bool

(** Mapped page numbers in increasing order, as a freshly sorted array
    (monomorphic [Int.compare], no per-element closure or intermediate
    list). Snapshot callers that immediately iterate should prefer this
    over {!mapped_pages}. *)
val page_numbers : t -> int array

(** Mapped page numbers in increasing order. *)
val mapped_pages : t -> int list

(** Raw page contents (without triggering the fault handler). *)
val page_contents : t -> int -> bytes option

(** {2 Dirty-page tracking}

    Iterative pre-copy needs to know which pages were written between
    transfer rounds. Tracking is off by default (and costs one branch per
    write when off); [track_dirty t true] starts tracking into a fresh
    empty set, [track_dirty t false] stops and drops the set. Writes and
    [map_page] mark pages; reads — including fault-handler demand loads,
    whose contents are reproducible on the destination — do not. *)

val track_dirty : t -> bool -> unit
val tracking_dirty : t -> bool

(** Pages written since tracking started or the last [clear_dirty], in
    increasing order. Empty when tracking is off. *)
val dirty_pages : t -> int list

(** Empty the dirty set, keeping tracking on. *)
val clear_dirty : t -> unit

(** {2 Access}

    A one-entry page TLB (the last page resolved, by number, and its
    bytes) serves in-page accesses without a page-table lookup; the u8
    and u64 accessors inline to that fast path, which writes take only
    while dirty tracking is off. [map_page] and [unmap_page] empty the
    TLB. Page-straddling and TLB-missing accesses take the page table,
    with the same faults and [Segfault]s. *)

val read_u8 : t -> int64 -> int
val read_u64 : t -> int64 -> int64
val write_u8 : t -> int64 -> int -> unit
val write_u64 : t -> int64 -> int64 -> unit

(** [read_u64_into t addr dst off] stores [read_u64 t addr] into [dst]
    at [off] (8 little-endian bytes), so an inlined in-page load does not
    box its result where the fast and slow paths meet. *)
val read_u64_into : t -> int64 -> bytes -> int -> unit

val read_bytes : t -> int64 -> int -> string
val write_bytes : t -> int64 -> string -> unit

(** Deep copy (pages are duplicated). The fault handler is not copied. *)
val copy : t -> t
