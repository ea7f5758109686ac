(* Equal-cost multi-path port selection.

   A group is an immutable port set plus a per-switch salt. Selection
   hashes the flow identity (src host, dst host, flow id — the
   simulator's stand-in for the 5-tuple) through an xorshift-multiply
   finalizer, so the same flow always resolves to the same port (no
   packet reordering inside a flow) while distinct flows spread across
   the set. The salt decorrelates switches: without it, every switch
   would agree on the hash and the fabric's upper tiers would see only
   a fraction of their ports.

   Everything here runs once per forwarded packet on multi-path
   switches, so the module is a dtlint R14 hot root: int-only
   arithmetic, no closures, no boxed returns. *)

type group = { ports : int array; salt : int }

let make_group ~salt ~ports =
  if Array.length ports = 0 then invalid_arg "Ecmp.make_group: empty port set";
  Array.iter
    (fun p -> if p < 0 then invalid_arg "Ecmp.make_group: negative port")
    ports;
  { ports = Array.copy ports; salt = Int64.to_int salt land max_int }

(* xorshift*-style avalanche. The multipliers are 62-bit primescaled
   constants (0x9E37... from SplitMix64 does not fit OCaml's immediate
   int), which is plenty: inputs are small host/flow ids and the salt
   supplies the high-entropy bits. *)
let mix x =
  let x = x lxor (x lsr 30) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 27) in
  let x = x * 0x27D4EB2F165667C5 in
  x lxor (x lsr 31)

let hash g ~src ~dst ~flow =
  let h = mix (g.salt lxor src) in
  let h = mix (h lxor dst) in
  let h = mix (h lxor flow) in
  h land max_int

let select g ~src ~dst ~flow =
  g.ports.(hash g ~src ~dst ~flow mod Array.length g.ports)
