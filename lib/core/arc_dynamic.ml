let algorithm = "arc-dynamic"

(* The shared ARC core with elastic slot storage; all of the algorithm
   lives in {!Arc.Core}. *)
module Make = Arc.Core (struct
  let algorithm = algorithm
  let name = "Arc_dynamic"
  let storage = Arc.Elastic
end)
