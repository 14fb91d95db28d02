(* Re-running this executable as a child process.  Workloads run in
   children so that each one's heap statistics are its own, and each sim
   run gets a fresh process: repeated runs inside one process are several
   times noisier, because each inherits the heap the previous one grew. *)

let absolute path =
  if Filename.is_relative path then Filename.concat (Sys.getcwd ()) path else path

let exe () = absolute Sys.executable_name

(* Run [exe args] and wait for it.  Its stdout is dropped: a child hands
   its outcome back through [write_result], and the parent prints it. *)
let run args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process (exe ()) (Array.of_list (exe () :: args)) Unix.stdin null
          Unix.stderr)
  in
  let rec wait () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let describe = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

(* A child's outcome, for its parent: parent and child are one
   executable, so the value reads back at the type it was written. *)
let write_result path v = Out_channel.with_open_bin path (fun oc -> Marshal.to_channel oc v [])

(* [None] when the child left no result (it failed before writing one). *)
let read_result path =
  match In_channel.with_open_bin path Marshal.from_channel with
  | v -> Some v
  | exception (Sys_error _ | End_of_file | Failure _) -> None
