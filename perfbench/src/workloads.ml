(* The workloads by the names BENCHMARK.json gives them. *)
let all =
  [
    ("feed-4k", Feed.run);
    ("bulk-128k-shm", Bulk.run);
    ("fabric-64x64", Fabric_wl.run);
  ]
