(* Perf-gate decision logic — see gate.mli for why this is a pure
   library rather than code in bin/perf_gate.ml. *)

let field_of ~key s =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat in
  let slen = String.length s in
  let rec find i =
    if i + plen > slen then None
    else if String.sub s i plen = pat then begin
      let j = ref (i + plen) in
      while !j < slen && s.[!j] = ' ' do incr j done;
      let k = ref !j in
      while
        !k < slen
        && (match s.[!k] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false)
      do
        incr k
      done;
      if !k > !j then float_of_string_opt (String.sub s !j (!k - !j)) else None
    end
    else find (i + 1)
  in
  find 0

let keys_with_prefix ~prefix s =
  let plen = String.length prefix in
  let slen = String.length s in
  let acc = ref [] in
  let seen = Hashtbl.create 8 in
  let i = ref 0 in
  while !i < slen do
    (* A key is  "name":  — scan quoted strings and keep those that
       start with [prefix] and are immediately followed by a colon. *)
    if s.[!i] = '"' && !i + 1 + plen <= slen && String.sub s (!i + 1) plen = prefix
    then begin
      let j = ref (!i + 1) in
      while !j < slen && s.[!j] <> '"' do incr j done;
      if !j < slen && !j + 1 < slen && s.[!j + 1] = ':' then begin
        let key = String.sub s (!i + 1) (!j - !i - 1) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          acc := key :: !acc
        end
      end;
      i := !j + 1
    end
    else incr i
  done;
  List.rev !acc

type verdict =
  | Within of { metric : string; value : float; baseline : float; limit : float }
  | Regression of { metric : string; value : float; baseline : float; limit : float }
  | Baseline_recorded of { metric : string; value : float }
  | Ceiling_ok of { metric : string; value : float; ceiling : float; unit : string }
  | Ceiling_exceeded of { metric : string; value : float; ceiling : float; unit : string }

let alloc_ceiling_words = 8.

let pp_verdict ppf = function
  | Within { metric; value; baseline; limit = _ } ->
    Format.fprintf ppf "ok — %s %.2f ns within budget of last committed %.2f" metric
      value baseline
  | Regression { metric; value; baseline; limit } ->
    Format.fprintf ppf "REGRESSION — %s %.2f ns exceeds %.2f ns (last committed %.2f)"
      metric value limit baseline
  | Baseline_recorded { metric; value } ->
    Format.fprintf ppf "no prior %s in trajectory — baseline %.2f recorded" metric value
  | Ceiling_ok { metric; value; ceiling; unit } ->
    Format.fprintf ppf "ok — %s %.2f %s under the %.2f %s ceiling" metric value unit
      ceiling unit
  | Ceiling_exceeded { metric; value; ceiling; unit } ->
    Format.fprintf ppf "CEILING — %s %.2f %s is not below the %.2f %s bound" metric
      value unit ceiling unit

type report = {
  entry : string;
  verdicts : verdict list;
  compared : int;
  failures : int;
  seeded : bool;
}

let evaluate ~bench ?fabric ?scaling ?prior ~threshold ?ceiling ~label ~date () =
  let missing file key =
    Error
      (Printf.sprintf "%s has no \"%s\" field — was it written by bench/main.exe?" file
         key)
  in
  let ( let* ) = Result.bind in
  let need key =
    match field_of ~key bench with Some v -> Ok v | None -> missing "bench" key
  in
  let* off = need "read_hit_ns_off" in
  let* on_ = need "read_hit_ns_on" in
  let* overhead = need "overhead_pct" in
  (* Optional per-file metrics: absent files or pre-ISSUE fields keep
     older checkouts gating what they do measure. *)
  let plain = field_of ~key:"read_plain_ns" bench in
  let join_p99 = field_of ~key:"reader_join_p99_ns" bench in
  let* snap =
    match fabric with
    | None -> Ok None
    | Some s -> (
      match field_of ~key:"snapshot_ns_per_shard" s with
      | Some v -> Ok (Some v)
      | None -> missing "fabric bench" "snapshot_ns_per_shard")
  in
  (* Scaling metrics are discovered, not hard-coded: whatever core
     counts the matrix measured are tracked and gated per count. *)
  let scaling_metrics =
    match scaling with
    | None -> []
    | Some s ->
      let keys =
        keys_with_prefix ~prefix:"read_hit_ns@" s
        @ keys_with_prefix ~prefix:"read_plain_ns@" s
      in
      List.filter_map (fun k -> Option.map (fun v -> (k, v)) (field_of ~key:k s)) keys
  in
  let tracked =
    [ ("read_hit_ns_off", Some off); ("read_plain_ns", plain);
      ("snapshot_ns_per_shard", snap); ("reader_join_p99_ns", join_p99) ]
    |> List.filter_map (fun (k, v) -> Option.map (fun v -> (k, v)) v)
  in
  let tracked = tracked @ scaling_metrics in
  let entry =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "{\"date\": \"%s\", \"label\": \"%s\", \"read_hit_ns_off\": %.2f, \
          \"read_hit_ns_on\": %.2f, \"overhead_pct\": %.2f"
         date label off on_ overhead);
    List.iter
      (fun (k, v) ->
        if k <> "read_hit_ns_off" then
          Buffer.add_string buf (Printf.sprintf ", \"%s\": %.2f" k v))
      tracked;
    Buffer.add_char buf '}';
    Buffer.contents buf
  in
  let baseline_of key = Option.bind prior (field_of ~key) in
  let gate (metric, value) =
    match baseline_of metric with
    | None -> Baseline_recorded { metric; value }
    | Some baseline ->
      let limit = baseline *. (1. +. (threshold /. 100.)) in
      if value > limit then Regression { metric; value; baseline; limit }
      else Within { metric; value; baseline; limit }
  in
  let trajectory_verdicts = List.map gate tracked in
  let bound ~unit ~ceiling:c (metric, value) =
    match value with
    | None -> []
    | Some v ->
      [ (if v < c then Ceiling_ok { metric; value = v; ceiling = c; unit }
         else Ceiling_exceeded { metric; value = v; ceiling = c; unit }) ]
  in
  (* The absolute bounds.  The R2' validated plain load exists to beat
     the classic read path's historical cost — enforced against the
     fixed ceiling, not just against drift.  The fabric's steady state
     allocates nothing; allocation counts carry no timing noise, so
     they are held under a fixed word ceiling with no trajectory
     baseline. *)
  let alloc key = Option.bind fabric (field_of ~key) in
  let ceiling_verdicts =
    (match ceiling with
     | Some c -> bound ~unit:"ns" ~ceiling:c ("read_plain_ns", plain)
     | None -> [])
    @ List.concat_map
        (fun key -> bound ~unit:"words" ~ceiling:alloc_ceiling_words (key, alloc key))
        [ "snapshot_alloc_words"; "deposit_alloc_words" ]
  in
  let verdicts = trajectory_verdicts @ ceiling_verdicts in
  let compared =
    List.length
      (List.filter (function Within _ | Regression _ -> true | _ -> false)
         trajectory_verdicts)
  in
  let failures =
    List.length
      (List.filter
         (function Regression _ | Ceiling_exceeded _ -> true | _ -> false)
         verdicts)
  in
  Ok { entry; verdicts; compared; failures; seeded = compared = 0 }
