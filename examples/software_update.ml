(* Dynamic software update: hot-swap a new program version into a live
   process - another Dapper transformation policy (paper Section I).

   Run with: dune exec examples/software_update.exe *)

open Dapper_machine
open Dapper_clite
open Dapper
open Cl
module Link = Dapper_codegen.Link

(* A server computing scores with a pricing function; v2 fixes the
   pricing formula. Same code shape, so the layout stays compatible. *)
(* DSU-friendly build: generous function padding leaves room for bodies
   to grow in later versions without moving any symbol *)
let opts = { Dapper_codegen.Opts.default with pad_quantum = 256 }

let version price_body =
  let m = create "pricing-server" in
  Cstd.add m;
  func m "price" [ ("x", Dapper_ir.Ir.I64) ] price_body;
  func m "main" [] (fun b ->
      decl b "total" (i 0);
      for_ b "req" (i 0) (i 6000) (fun b ->
          set b "total" (add (v "total") (call "price" [ band (v "req") (i 15) ])));
      Cstd.print b m "total=";
      do_ b (call "print_int" [ v "total" ]);
      do_ b (call "print_nl" []);
      ret b (i 0));
  finish m

let () =
  (* v1 has an off-by-one bug: it underprices by 1 per request *)
  let v1 = Link.compile ~opts ~app:"pricing-server"
      (version (fun b -> ret b (mul (v "x") (i 3)))) in
  let v2 = Link.compile ~opts ~app:"pricing-server"
      (version (fun b -> ret b (add (mul (v "x") (i 3)) (i 1)))) in
  let changed =
    Dsu.changed_functions ~old_bin:v1.Link.cp_x86 ~new_bin:v2.Link.cp_x86
  in
  Printf.printf "new version changes: %s\n" (String.concat ", " changed);

  let p = Process.load v1.Link.cp_x86 in
  ignore (Process.run p ~max_instrs:60_000);
  Printf.printf "server running v1 (%Ld instructions in); applying the fix live...\n"
    p.Process.total_instrs;
  match Dsu.update p ~old_bin:v1.Link.cp_x86 ~new_bin:v2.Link.cp_x86 with
  | Error e -> failwith (Dapper_util.Dapper_error.to_string e)
  | Ok q ->
    (match Process.run_to_completion q ~fuel:10_000_000 with
     | Process.Exited_run _ ->
       print_string (Process.stdout_contents p ^ Process.stdout_contents q);
       (* pure v1 would print 135000; pure v2 141000; the live-updated
          server lands in between: early requests used the buggy price *)
       print_endline
         "requests before the update used v1 pricing, later ones v2 - no restart, no lost state"
     | _ -> failwith "updated server failed")
