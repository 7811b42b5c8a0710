(* Minimal AVR ELF32 reader/writer (program headers only). *)

let data_space = 0x800000
let em_avr = 0x53
let ehdr_size = 52
let phdr_size = 32

type segment = {
  vaddr : int;
  paddr : int;
  filesz : int;
  memsz : int;
  data : string;
}

type t = { entry : int; segments : segment list }

type error =
  | Bad_magic
  | Not_elf32
  | Not_little_endian
  | Not_executable of { e_type : int }
  | Not_avr of { machine : int }
  | Bad_phentsize of { phentsize : int }
  | Truncated of { what : string; need : int; have : int }

let error_message = function
  | Bad_magic -> "not an ELF file (bad magic)"
  | Not_elf32 -> "not a 32-bit ELF"
  | Not_little_endian -> "not little-endian"
  | Not_executable { e_type } ->
    Printf.sprintf "not an executable (e_type %d)" e_type
  | Not_avr { machine } ->
    Printf.sprintf "not an AVR image (e_machine 0x%02x)" machine
  | Bad_phentsize { phentsize } ->
    Printf.sprintf "program header entries of %d bytes (need at least %d)"
      phentsize phdr_size
  | Truncated { what; need; have } ->
    Printf.sprintf "truncated file: %s needs %d bytes, file has %d" what need have

exception Fail of error

let u16 s off = Char.code s.[off] lor (Char.code s.[off + 1] lsl 8)

let u32 s off =
  u16 s off lor (u16 s (off + 2) lsl 16)

let need s what n =
  if String.length s < n then
    raise (Fail (Truncated { what; need = n; have = String.length s }))

let parse (s : string) : (t, error) result =
  try
    need s "ELF header" ehdr_size;
    if String.sub s 0 4 <> "\x7fELF" then raise (Fail Bad_magic);
    if Char.code s.[4] <> 1 then raise (Fail Not_elf32);
    if Char.code s.[5] <> 1 then raise (Fail Not_little_endian);
    let e_type = u16 s 16 in
    if e_type <> 2 then raise (Fail (Not_executable { e_type }));
    let machine = u16 s 18 in
    if machine <> em_avr then raise (Fail (Not_avr { machine }));
    let entry = u32 s 24 in
    let phoff = u32 s 28 in
    let phentsize = u16 s 42 in
    let phnum = u16 s 44 in
    (* The whole header table must lie in the file before any entry is
       read: a short (or zero) entry size would otherwise read one
       header over and over, up to 65 535 segments from a tiny file.
       A truncated table is reported at its first header that does not
       fit. *)
    if phnum > 0 then begin
      if phentsize < phdr_size then raise (Fail (Bad_phentsize { phentsize }));
      let room = String.length s - phoff - phdr_size in
      let fits = if room < 0 then 0 else (room / phentsize) + 1 in
      if fits < phnum then
        need s (Printf.sprintf "program header %d" fits)
          (phoff + (fits * phentsize) + phdr_size)
    end;
    let segments = ref [] in
    for i = 0 to phnum - 1 do
      let off = phoff + (i * phentsize) in
      let p_type = u32 s off in
      if p_type = 1 (* PT_LOAD *) then begin
        let p_offset = u32 s (off + 4) in
        let vaddr = u32 s (off + 8) in
        let paddr = u32 s (off + 12) in
        let filesz = u32 s (off + 16) in
        let memsz = u32 s (off + 20) in
        need s (Printf.sprintf "segment %d data" i) (p_offset + filesz);
        segments :=
          { vaddr; paddr; filesz; memsz; data = String.sub s p_offset filesz }
          :: !segments
      end
    done;
    Ok { entry; segments = List.rev !segments }
  with Fail e -> Error e

let encode ~entry (segments : segment list) : string =
  let n = List.length segments in
  let buf = Buffer.create 4096 in
  let w8 v = Buffer.add_char buf (Char.chr (v land 0xFF)) in
  let w16 v = w8 v; w8 (v lsr 8) in
  let w32 v = w16 (v land 0xFFFF); w16 ((v lsr 16) land 0xFFFF) in
  (* e_ident *)
  Buffer.add_string buf "\x7fELF";
  w8 1 (* ELFCLASS32 *); w8 1 (* ELFDATA2LSB *); w8 1 (* EV_CURRENT *);
  for _ = 7 to 15 do w8 0 done;
  w16 2 (* ET_EXEC *); w16 em_avr; w32 1 (* e_version *);
  w32 entry;
  w32 ehdr_size (* e_phoff *); w32 0 (* e_shoff *); w32 0 (* e_flags *);
  w16 ehdr_size; w16 phdr_size; w16 n;
  w16 0 (* e_shentsize *); w16 0 (* e_shnum *); w16 0 (* e_shstrndx *);
  (* Program headers; segment bytes packed right after the header table. *)
  let data_start = ehdr_size + (n * phdr_size) in
  let off = ref data_start in
  List.iter
    (fun seg ->
      w32 1 (* PT_LOAD *);
      w32 !off;
      w32 seg.vaddr;
      w32 seg.paddr;
      w32 seg.filesz;
      w32 seg.memsz;
      w32 5 (* PF_R|PF_X *);
      w32 1 (* p_align *);
      off := !off + seg.filesz)
    segments;
  List.iter
    (fun seg ->
      if String.length seg.data <> seg.filesz then
        invalid_arg "Elf.encode: data length <> filesz";
      Buffer.add_string buf seg.data)
    segments;
  Buffer.contents buf
