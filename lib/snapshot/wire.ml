(* Binary wire primitives for the snapshot format.

   Writers append to a [Buffer.t]; readers consume a [string] through a
   mutable cursor and raise {!Corrupt} on malformed input (the public
   parser converts that into a [result]).  Integers use signed LEB128
   varints, so any OCaml [int] — including [max_int], which appears as
   the parked [preempt_at] horizon — round-trips; densely packed arrays
   (flash words, SRAM) use fixed-width little-endian fields instead. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- writers ------------------------------------------------------------- *)

module W = struct
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

  (* Signed LEB128. *)
  let int b v =
    let rec go v =
      let byte = v land 0x7F in
      let rest = v asr 7 in
      let done_ = (rest = 0 && byte land 0x40 = 0) || (rest = -1 && byte land 0x40 <> 0) in
      u8 b (if done_ then byte else byte lor 0x80);
      if not done_ then go rest
    in
    go v

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  (* Dense array of [n] values in [0, 0xFFFF], two bytes LE each: the
     values of [a], then [0xFFFF] up to [n] (a flash and its erased
     tail). *)
  let u16_array b (a : int array) n =
    int b n;
    Array.iter
      (fun v ->
        u8 b (v land 0xFF);
        u8 b ((v lsr 8) land 0xFF))
      a;
    for _ = Array.length a to n - 1 do
      u8 b 0xFF;
      u8 b 0xFF
    done
end

(* --- readers ------------------------------------------------------------- *)

module R = struct
  type t = { s : string; mutable pos : int; limit : int }

  let of_string ?(pos = 0) s = { s; pos; limit = String.length s }

  let u8 r =
    if r.pos >= r.limit then corrupt "truncated input at %d" r.pos;
    let c = Char.code r.s.[r.pos] in
    r.pos <- r.pos + 1;
    c

  let int r =
    let rec go shift acc =
      if shift > 70 then corrupt "varint too long at %d" r.pos;
      let byte = u8 r in
      let acc = acc lor ((byte land 0x7F) lsl shift) in
      let shift = shift + 7 in
      if byte land 0x80 <> 0 then go shift acc
      else if byte land 0x40 <> 0 && shift < Sys.int_size then
        acc lor (-1 lsl shift) (* sign-extend *)
      else acc
    in
    go 0 0

  (* A length prefix for [what], whose elements each take at least
     [width] bytes of input: a length the remaining input cannot hold
     is corrupt, so no reader ever allocates by an unchecked length. *)
  let length r ~width what =
    let n = int r in
    if n < 0 || n > (r.limit - r.pos) / width then
      corrupt "bad %s length %d at %d" what n r.pos;
    n

  let string r =
    let n = length r ~width:1 "string" in
    let s = String.sub r.s r.pos n in
    r.pos <- r.pos + n;
    s

  (* [string]'s result is fresh and unshared, so it becomes the bytes. *)
  let bytes r = Bytes.unsafe_of_string (string r)

  (* A [u16_array] [what] of exactly [n] values, read in place: the
     result is [f n get], where [get i] is value [i], so [f] decides
     what to allocate. *)
  let u16_array r what n f =
    let got = length r ~width:2 what in
    if got <> n then corrupt "%s has %d entries, expected %d" what got n;
    let base = r.pos in
    r.pos <- base + (2 * n);
    f n (fun i ->
        Char.code r.s.[base + (2 * i)] lor (Char.code r.s.[base + (2 * i) + 1] lsl 8))
end

(* --- self-describing sections -------------------------------------------- *)

(* A section is a named, length-prefixed blob: readers can skip sections
   they do not understand, which is what lets the format grow without
   breaking old readers within a major version. *)

let w_section (b : Buffer.t) name payload =
  W.string b name;
  W.string b payload

(** Every section until end of input, each as a reader confined to its
    payload (no copy: a fleet's payload is megabytes). *)
let r_sections (r : R.t) : (string * R.t) list =
  let rec go acc =
    if r.R.pos >= r.limit then List.rev acc
    else
      let name = R.string r in
      let n = R.length r ~width:1 "section" in
      let section = { r with limit = r.pos + n } in
      r.pos <- r.pos + n;
      go ((name, section) :: acc)
  in
  go []
