module O = Amulet_mcu.Opcode
module W = Amulet_mcu.Word
module E = Amulet_mcu.Encode

exception Error of string

let errf fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let expr_is_symbolic = function
  | Asm.Num _ -> false
  | Asm.Sym _ | Asm.Off _ | Asm.Border _ -> true

(* Size computation: a placeholder value is used for symbolic
   expressions; `no_cg_imm` guarantees the size does not depend on the
   placeholder. *)
let lower_src_for_size = function
  | Asm.Sreg r -> (O.S_reg r, false)
  | Asm.Sidx (r, _) -> (O.S_indexed (r, 0x7EAD), false)
  | Asm.Sabs _ -> (O.S_absolute 0x7EAD, false)
  | Asm.Sind r -> (O.S_indirect r, false)
  | Asm.Sinc r -> (O.S_indirect_inc r, false)
  | Asm.Simm (Asm.Num n) -> (O.S_immediate n, false)
  | Asm.Simm _ -> (O.S_immediate 0x7EAD, true)

let lower_dst_for_size = function
  | Asm.Dreg r -> O.D_reg r
  | Asm.Didx (r, _) -> O.D_indexed (r, 0x7EAD)
  | Asm.Dabs _ -> O.D_absolute 0x7EAD

let insn_size = function
  | Asm.I1 (op, w, s, d) ->
    let s', no_cg = lower_src_for_size s in
    E.length_bytes ~no_cg_imm:no_cg (O.Fmt1 (op, w, s', lower_dst_for_size d))
  | Asm.I2 (op, w, s) ->
    let s', no_cg = lower_src_for_size s in
    E.length_bytes ~no_cg_imm:no_cg (O.Fmt2 (op, w, s'))
  | Asm.Ijmp _ -> 2
  | Asm.Ireti -> 2

(* Size of every item but [Align2], whose padding depends on its
   offset. *)
let fixed_size = function
  | Asm.Ins i -> insn_size i
  | Asm.Label _ | Asm.Comment _ | Asm.Align2 -> 0
  | Asm.Dword _ -> 2
  | Asm.Dbytes s -> String.length s
  | Asm.Space n -> n

(* ------------------------------------------------------------------ *)
(* Layout and jump relaxation.

   Format-III jumps reach only +/-512 words.  Compiler-generated
   branches target labels in the same section; when one is out of
   range we rewrite it:

     JMP l                          BR #l
     Jcc l     becomes     Jcc m; JMP s; m: BR #l; s:

   (the generic pattern needs no condition inversion, so it also
   covers JN, which has no complement).  Sizing iterates to a fixpoint
   since lengthening one jump can push another out of range.  The
   layout is computed once per section; size, labels and emission all
   read it. *)

let long_jmp_bytes = 4 (* MOV #addr, PC *)
let long_jcc_bytes = 8 (* Jcc m; JMP s; m: BR #l *)

type layout = {
  items : Asm.item array;  (* relaxed *)
  offsets : int array;  (* one per item, then the section size *)
  labels : (string * int) list;  (* definition order *)
}

(* Offsets of [items] given each item's fixed size. *)
let place items sizes =
  let offsets = Array.make (Array.length items + 1) 0 in
  Array.iteri
    (fun i item ->
      let o = offsets.(i) in
      offsets.(i + 1) <-
        (o + match item with Asm.Align2 -> o land 1 | _ -> sizes.(i)))
    items;
  offsets

(* Jumps that must take the long form: a target outside the section or
   beyond the short range under the current sizes, to a fixpoint.
   [sizes] is updated to the long forms' sizes. *)
let relax items sizes =
  let targets = Hashtbl.create 64 in
  Array.iteri
    (fun i -> function Asm.Label l -> Hashtbl.replace targets l i | _ -> ())
    items;
  let is_long = Array.make (Array.length items) false in
  let rec pass () =
    let offsets = place items sizes in
    let changed = ref false in
    Array.iteri
      (fun i item ->
        match item with
        | Asm.Ins (Asm.Ijmp (cond, l)) when not is_long.(i) ->
          let out_of_range =
            match Hashtbl.find_opt targets l with
            | None -> true
            | Some t ->
              let delta = offsets.(t) - (offsets.(i) + 2) in
              delta < -1024 || delta > 1022
          in
          if out_of_range then begin
            is_long.(i) <- true;
            sizes.(i) <-
              (if cond = O.JMP then long_jmp_bytes else long_jcc_bytes);
            changed := true
          end
        | _ -> ())
      items;
    if !changed then pass ()
  in
  pass ();
  is_long

(* The long forms written out, with their items' sizes. *)
let expand items sizes is_long =
  let out = ref [] in
  let add size item = out := (item, size) :: !out in
  Array.iteri
    (fun i item ->
      match item with
      | Asm.Ins (Asm.Ijmp (cond, l)) when is_long.(i) ->
        if cond = O.JMP then add long_jmp_bytes (Asm.br (Asm.Sym l))
        else begin
          let mid = Printf.sprintf "%s$$rx%dm" l i in
          let skip = Printf.sprintf "%s$$rx%ds" l i in
          add 2 (Asm.Ins (Asm.Ijmp (cond, mid)));
          add 2 (Asm.Ins (Asm.Ijmp (O.JMP, skip)));
          add 0 (Asm.Label mid);
          add long_jmp_bytes (Asm.br (Asm.Sym l));
          add 0 (Asm.Label skip)
        end
      | item -> add sizes.(i) item)
    items;
  let placed = Array.of_list (List.rev !out) in
  (Array.map fst placed, Array.map snd placed)

let layout items =
  let items = Array.of_list items in
  let sizes = Array.map fixed_size items in
  let is_long = relax items sizes in
  let items, sizes =
    if Array.exists Fun.id is_long then expand items sizes is_long
    else (items, sizes)
  in
  let offsets = place items sizes in
  let seen = Hashtbl.create 64 in
  let labels = ref [] in
  Array.iteri
    (fun i -> function
      | Asm.Label l ->
        if Hashtbl.mem seen l then errf "duplicate label %s" l;
        Hashtbl.add seen l ();
        labels := (l, offsets.(i)) :: !labels
      | _ -> ())
    items;
  { items; offsets; labels = List.rev !labels }

let size t = t.offsets.(Array.length t.items)
let labels t = t.labels

(* ------------------------------------------------------------------ *)
(* Emission *)

let eval resolve = function
  | Asm.Num n -> n
  | Asm.Sym s -> resolve s
  | Asm.Off (s, n) -> resolve s + n
  | Asm.Border s -> Amulet_mcu.Mpu.border (resolve s)

let lower_src resolve = function
  | Asm.Sreg r -> (O.S_reg r, false)
  | Asm.Sidx (r, e) -> (O.S_indexed (r, eval resolve e), false)
  | Asm.Sabs e -> (O.S_absolute (eval resolve e land 0xFFFF), false)
  | Asm.Sind r -> (O.S_indirect r, false)
  | Asm.Sinc r -> (O.S_indirect_inc r, false)
  | Asm.Simm e -> (O.S_immediate (eval resolve e land 0xFFFF), expr_is_symbolic e)

let lower_dst resolve = function
  | Asm.Dreg r -> O.D_reg r
  | Asm.Didx (r, e) -> O.D_indexed (r, eval resolve e)
  | Asm.Dabs e -> O.D_absolute (eval resolve e land 0xFFFF)

let emit ~base ~resolve t =
  let buf = Bytes.make (size t) '\000' in
  let put_word offset w =
    Bytes.set buf offset (Char.chr (w land 0xFF));
    Bytes.set buf (offset + 1) (Char.chr ((w lsr 8) land 0xFF))
  in
  let put_words offset ws = List.iteri (fun i w -> put_word (offset + (2 * i)) w) ws in
  let emit_insn offset = function
    | Asm.I1 (op, w, s, d) ->
      let s', no_cg = lower_src resolve s in
      put_words offset (E.encode ~no_cg_imm:no_cg (O.Fmt1 (op, w, s', lower_dst resolve d)))
    | Asm.I2 (op, w, s) ->
      let s', no_cg = lower_src resolve s in
      put_words offset (E.encode ~no_cg_imm:no_cg (O.Fmt2 (op, w, s')))
    | Asm.Ijmp (c, l) ->
      let target = resolve l in
      let here = base + offset in
      let delta = target - (here + 2) in
      if delta land 1 <> 0 then errf "odd jump displacement to %s" l;
      let words = delta asr 1 in
      if words < -512 || words > 511 then
        errf "jump to %s out of range (%d words)" l words;
      put_words offset (E.encode (O.Jump (c, words)))
    | Asm.Ireti -> put_words offset (E.encode O.Reti)
  in
  Array.iteri
    (fun i item ->
      let offset = t.offsets.(i) in
      match item with
      | Asm.Ins ins -> emit_insn offset ins
      | Asm.Label _ | Asm.Comment _ | Asm.Align2 | Asm.Space _ -> ()
      | Asm.Dword e -> put_word offset (eval resolve e land 0xFFFF)
      | Asm.Dbytes s -> Bytes.blit_string s 0 buf offset (String.length s))
    t.items;
  buf
