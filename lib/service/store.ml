(* Snapshot store shared by every job in a serve run.

   A {e semantic} key ("what would this capture be?" — e.g.
   ["warm|feeder,search|120000"]) maps straight to the captured blob and
   its content digest (MD5 of the serialized snapshot), so a job skips
   the capture work entirely when an equal job got there first.

   Hit accounting is deterministic in aggregate whatever the worker
   count or steal order: [get_or_capture] linearizes each key under the
   store mutex with a Pending slot, so of [n] jobs asking for the same
   key exactly one computes and [n - 1] count as hits — concurrent
   askers block on the condition variable instead of double-computing.
   That is what lets the test suite pin [service.dedup_hits] exactly. *)

type slot = Pending | Ready of string * string  (** blob, digest *)

type t = {
  mutex : Mutex.t;
  ready : Condition.t;
  slots : (string, slot) Hashtbl.t;
  mutable hits : int;
}

let create () =
  { mutex = Mutex.create ();
    ready = Condition.create ();
    slots = Hashtbl.create 64;
    hits = 0 }

let hits t = t.hits

(** Stored blobs; read once the run is over, when no Pending slot is
    left. *)
let entries t = Hashtbl.length t.slots

(** [get_or_capture t ~key f] returns [(blob, digest)] for [key],
    computing it with [f] at most once per key across all workers.  If
    [f] raises, the Pending slot is removed and waiters retry (the next
    asker recomputes), so a failed capture poisons nobody. *)
let get_or_capture t ~key f =
  let rec await () =
    match Hashtbl.find_opt t.slots key with
    | Some (Ready (blob, digest)) ->
      t.hits <- t.hits + 1;
      Mutex.unlock t.mutex;
      (blob, digest)
    | Some Pending ->
      Condition.wait t.ready t.mutex;
      await ()
    | None ->
      Hashtbl.replace t.slots key Pending;
      Mutex.unlock t.mutex;
      let blob =
        try f ()
        with e ->
          Mutex.lock t.mutex;
          Hashtbl.remove t.slots key;
          Condition.broadcast t.ready;
          Mutex.unlock t.mutex;
          raise e
      in
      let digest = Digest.to_hex (Digest.string blob) in
      Mutex.lock t.mutex;
      Hashtbl.replace t.slots key (Ready (blob, digest));
      Condition.broadcast t.ready;
      Mutex.unlock t.mutex;
      (blob, digest)
  in
  Mutex.lock t.mutex;
  await ()
