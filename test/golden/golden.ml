(* golden FILE NAME=PROG... — check a golden transcript.

   FILE is a sequence of blocks: a line "$ NAME ARG..." followed by the
   exact stdout of that command. Every command runs again, PROG standing
   for NAME, with every SV_* variable removed from its environment (so a
   caller's SV_INDEX_CACHE or SV_METRIC_CACHE cannot change a byte),
   and the fresh transcript must equal FILE; a nonzero exit shows as an
   "[exit N]" line. On a difference the fresh transcript is written to
   FILE.actual, `diff -u` shows it, and the exit status is 1: copy
   FILE.actual over FILE to accept the new output. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let env =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"SV_" kv))
       (Array.to_list (Unix.environment ())))

(* stdout of [prog args], through a file: a pipe would need draining
   while the command runs *)
let run prog args =
  let out = Filename.temp_file "golden" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) env Unix.stdin fd
      devnull
  in
  Unix.close fd;
  Unix.close devnull;
  let status = snd (Unix.waitpid [] pid) in
  let text = read_file out in
  match status with
  | Unix.WEXITED 0 -> text
  | Unix.WEXITED n -> Printf.sprintf "%s[exit %d]\n" text n
  | _ -> text ^ "[killed]\n"

let () =
  match Array.to_list Sys.argv with
  | _ :: file :: bindings ->
      let progs =
        List.map
          (fun b ->
            match String.index_opt b '=' with
            | Some i -> (String.sub b 0 i, String.sub b (i + 1) (String.length b - i - 1))
            | None -> failwith ("expected NAME=PROG, got " ^ b))
          bindings
      in
      let expected = read_file file in
      let fresh = Buffer.create (String.length expected) in
      List.iter
        (fun line ->
          if String.starts_with ~prefix:"$ " line then begin
            Buffer.add_string fresh (line ^ "\n");
            match String.split_on_char ' ' line with
            | _ :: name :: args -> (
                match List.assoc_opt name progs with
                | Some prog -> Buffer.add_string fresh (run prog args)
                | None -> failwith ("no program bound to " ^ name))
            | _ -> failwith ("empty command line in " ^ file)
          end)
        (String.split_on_char '\n' expected);
      if Buffer.contents fresh <> expected then begin
        let actual = Filename.basename file ^ ".actual" in
        Out_channel.with_open_bin actual (fun oc -> Buffer.output_buffer oc fresh);
        ignore (Sys.command (Filename.quote_command "diff" [ "-u"; file; actual ]));
        Printf.eprintf "golden: %s differs; the fresh output is in %s\n" file
          (Filename.concat (Sys.getcwd ()) actual);
        exit 1
      end
  | _ ->
      prerr_endline "usage: golden FILE NAME=PROG...";
      exit 2
