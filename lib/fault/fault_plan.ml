exception Crashed

type op_class = [ `Load | `Store | `Rmw | `Bulk ]

type kind = [ `Any | op_class ]

type action =
  | Crash
  | Stall of int
  | Tear of { at_word : int; silent : bool }
  | Drop
  | Cas_lie

type point = { fiber : int; kind : kind; nth : int }

type event = { point : point; action : action }

type t = event list

let empty = []

let check_point ~who ~fiber ~nth =
  if fiber < 0 then invalid_arg (Printf.sprintf "%s: fiber %d negative" who fiber);
  if nth < 1 then invalid_arg (Printf.sprintf "%s: access index %d (need >= 1)" who nth)

let crash ?(kind = `Any) ~fiber ~at_access plan =
  check_point ~who:"Fault_plan.crash" ~fiber ~nth:at_access;
  { point = { fiber; kind; nth = at_access }; action = Crash } :: plan

let stall ~fiber ~at_access ~steps plan =
  check_point ~who:"Fault_plan.stall" ~fiber ~nth:at_access;
  if steps < 1 then
    invalid_arg (Printf.sprintf "Fault_plan.stall: steps = %d (need >= 1)" steps);
  { point = { fiber; kind = `Any; nth = at_access }; action = Stall steps } :: plan

let tear ~fiber ~at_copy ~at_word ~silent plan =
  check_point ~who:"Fault_plan.tear" ~fiber ~nth:at_copy;
  if at_word < 0 then
    invalid_arg (Printf.sprintf "Fault_plan.tear: word %d negative" at_word);
  { point = { fiber; kind = `Bulk; nth = at_copy }; action = Tear { at_word; silent } }
  :: plan

let drop ~fiber ~kind ~nth plan =
  check_point ~who:"Fault_plan.drop" ~fiber ~nth;
  { point = { fiber; kind = (kind :> kind); nth }; action = Drop } :: plan

let cas_lie ~fiber ~nth plan =
  check_point ~who:"Fault_plan.cas_lie" ~fiber ~nth;
  { point = { fiber; kind = `Rmw; nth }; action = Cas_lie } :: plan

let events = Fun.id
let size = List.length

let class_name = function
  | `Any -> "any"
  | `Load -> "load"
  | `Store -> "store"
  | `Rmw -> "rmw"
  | `Bulk -> "bulk"

let pp_action ppf = function
  | Crash -> Format.fprintf ppf "crash"
  | Stall d -> Format.fprintf ppf "stall(%d)" d
  | Tear { at_word; silent } ->
    Format.fprintf ppf "tear(word=%d%s)" at_word (if silent then ",silent" else "")
  | Drop -> Format.fprintf ppf "drop"
  | Cas_lie -> Format.fprintf ppf "cas-lie"

let pp ppf plan =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun { point = { fiber; kind; nth }; action } ->
      Format.fprintf ppf "fiber %d, %s access #%d: %a@," fiber (class_name kind) nth
        pp_action action)
    plan;
  Format.fprintf ppf "@]"

let to_string plan = Format.asprintf "%a" pp plan
