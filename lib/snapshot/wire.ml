(* Binary wire primitives for the snapshot format.  Writers append to a
   [Buffer.t]; readers consume a [string] through a mutable cursor and
   raise {!Corrupt} on malformed input.  Integers are signed LEB128
   varints, so any OCaml [int] round-trips ([max_int] is the parked
   [preempt_at] horizon); flash words are fixed-width little-endian. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- writers ------------------------------------------------------------- *)

module W = struct
  let u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))

  (* Signed LEB128. *)
  let rec int b v =
    let byte = v land 0x7F and rest = v asr 7 in
    if (rest = 0 && byte land 0x40 = 0) || (rest = -1 && byte land 0x40 <> 0) then u8 b byte
    else begin
      u8 b (byte lor 0x80);
      int b rest
    end

  let string b s =
    int b (String.length s);
    Buffer.add_string b s

  (* Dense array of [n] values in [0, 0xFFFF], two bytes LE each: the
     values of [a], then [0xFFFF] up to [n] (a flash and its erased
     tail), filled in one block and added in one step. *)
  let u16_array b (a : int array) n =
    int b n;
    let m = min n (Array.length a) in
    let block = Bytes.make (2 * n) '\xff' in
    for i = 0 to m - 1 do
      Bytes.set_uint16_le block (2 * i) (Array.unsafe_get a i land 0xFFFF)
    done;
    Buffer.add_bytes b block
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

  let rec int_from r shift acc =
    if shift > 70 then corrupt "varint too long at %d" r.pos;
    let byte = u8 r in
    let acc = acc lor ((byte land 0x7F) lsl shift) in
    let shift = shift + 7 in
    if byte land 0x80 <> 0 then int_from r shift acc
    else if byte land 0x40 <> 0 && shift < Sys.int_size then
      acc lor (-1 lsl shift) (* sign-extend *)
    else acc

  let int r = int_from r 0 0

  (* A length prefix for [what], whose elements each take at least
     [width] bytes of input: a length the remaining input cannot hold
     is corrupt, so no reader ever allocates by an unchecked length. *)
  let length r ~width what =
    let n = int r in
    if n < 0 || n > (r.limit - r.pos) / width then
      corrupt "bad %s length %d at %d" what n r.pos;
    n

  (* A string's start and length, skipped. *)
  let span r =
    let n = length r ~width:1 "string" in
    r.pos <- r.pos + n;
    (r.pos - n, n)

  let string r = let at, n = span r in String.sub r.s at n
  let skip_string r = ignore (span r)

  (* [string]'s result is fresh and unshared, so it becomes the bytes. *)
  let bytes r = Bytes.unsafe_of_string (string r)

  (* A string read into the front of [dst], which must hold it. *)
  let string_into r dst = let at, n = span r in Bytes.blit_string r.s at dst 0 n

  (* A [u16_array] [what] of exactly [n] values, read in place: the
     result is [f used get], where [get i] is value [i] and every value
     from [used] on is [0xFFFF] (an erased tail, passed over four values
     a step), so [f] decides what to allocate. *)
  let u16_array r what n f =
    let got = length r ~width:2 what in
    if got <> n then corrupt "%s has %d entries, expected %d" what got n;
    let base = r.pos in
    r.pos <- base + (2 * n);
    let rec used i =
      if i >= 4 && String.get_int64_le r.s (base + (2 * i) - 8) = -1L then used (i - 4)
      else if i > 0 && String.get_uint16_le r.s (base + (2 * i) - 2) = 0xFFFF then used (i - 1)
      else i
    in
    f (used n) (fun i -> String.get_uint16_le r.s (base + (2 * i)))
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
