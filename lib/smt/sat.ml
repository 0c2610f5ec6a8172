(** A CDCL SAT solver: two-watched-literal propagation, first-UIP
    clause learning, VSIDS-style decision heuristic with phase saving,
    and geometric restarts (every [100 * 1.5^n] conflicts).  This is
    the engine under the bit-blaster, the role STP/Z3 play for the
    paper's tools.

    Literal [2*v] is variable [v] (0-based), [2*v+1] its negation.  A
    clause is an offset into one [int array] arena: a header word, then
    its literals.  The header packs the clause size (low 31 bits) and
    its owner plus one above them: the gate variable whose Tseitin
    definition the clause is part of, or 0 for learnt clauses and
    clauses added without [~owner].  [watches.(l)] holds, in push
    order, the clauses watching [lit_neg l].

    {b Cone-restricted solves.}  [solve ~cone] decides only the cone
    variables, a set the caller closes under gate inputs (the
    bit-blaster walks its fan-in table).  Above level 0, [propagate]
    leaves a clause whose owner is outside the cone inert (it keeps its
    watch and does nothing else); level-0 propagation stays complete,
    and learnt and owner-less clauses are always active.  The order
    heap holds only unassigned cone variables, so the answer is Sat
    once every cone variable is assigned without a conflict: every
    gate being a full definition of its inputs, the gates outside the
    cone extend that assignment to a model of the whole CNF.  Without
    [~cone] every variable is in the cone and the search is the plain
    one.

    The trajectory tests in [test_smt.ml] pin the search (counts,
    verdicts, models): layout changes must keep them, heuristic changes
    (blockers, clause deletion, minimisation) move them. *)

type result = Sat | Unsat | Unknown

type t = {
  mutable nvars : int;
  mutable arena : int array;             (* size header, then literals *)
  mutable arena_n : int;
  mutable nclauses : int;                (* problem clauses in the arena *)
  mutable watches : int array array;     (* literal -> clause offsets *)
  mutable watch_n : int array;
  mutable scratch : int array;           (* watchers being visited *)
  mutable value : int array;             (* literal -> -1 unset, 0 false, 1 true *)
  mutable level : int array;
  mutable reason : int array;            (* clause offset, -1 for none *)
  mutable activity : float array;
  mutable phase : bool array;            (* saved phases *)
  mutable seen : bool array;             (* [analyze] marks, clear between calls *)
  mutable trail : int array;             (* literals in assignment order *)
  mutable trail_n : int;
  mutable trail_lim : int array;         (* decision-level boundaries *)
  mutable levels : int;                  (* current decision level *)
  mutable prop_head : int;
  mutable var_inc : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable decisions : int;      (* decision levels opened *)
  mutable propagations : int;   (* trail literals dequeued *)
  (* activity-ordered heap of candidate decision variables *)
  mutable heap : int array;
  mutable heap_n : int;
  mutable heap_pos : int array;   (* var -> heap index, -1 if absent *)
  mutable heap_full : bool;       (* the heap holds every unassigned var *)
  (* the cone of the running solve; [cone = false] means every var *)
  mutable cone : bool;
  mutable in_cone : int array;    (* var -> [cone_stamp] when in the cone *)
  mutable cone_stamp : int;
  mutable cone_free : int;        (* unassigned cone vars, in a cone solve *)
  mutable lits : int array;       (* literals of the clause being added *)
}

let lit_var l = l lsr 1
let lit_sign l = l land 1 = 0 (* true = positive *)
let lit_neg l = l lxor 1
let mk_lit v positive = (v lsl 1) lor (if positive then 0 else 1)

let create () =
  { nvars = 0;
    arena = Array.make 64 0;
    arena_n = 0;
    nclauses = 0;
    watches = Array.make 16 [||];
    watch_n = Array.make 16 0;
    scratch = Array.make 16 0;
    value = Array.make 16 (-1);
    level = Array.make 8 0;
    reason = Array.make 8 (-1);
    activity = Array.make 8 0.0;
    phase = Array.make 8 false;
    seen = Array.make 8 false;
    trail = Array.make 8 0;
    trail_n = 0;
    trail_lim = Array.make 8 0;
    levels = 0;
    prop_head = 0;
    var_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    heap = Array.make 8 0;
    heap_n = 0;
    heap_pos = Array.make 8 (-1);
    heap_full = true;
    cone = false;
    in_cone = Array.make 8 0;
    cone_stamp = 0;
    cone_free = 0;
    lits = Array.make 8 0 }

(* [arr] with room for [n] cells, doubling; new cells hold [def] *)
let grow arr n def =
  let len = Array.length arr in
  if n <= len then arr
  else begin
    let arr' = Array.make (max n (2 * len)) def in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

let ensure_capacity t n =
  t.level <- grow t.level n 0;
  t.reason <- grow t.reason n (-1);
  t.activity <- grow t.activity n 0.0;
  t.phase <- grow t.phase n false;
  t.seen <- grow t.seen n false;
  t.trail <- grow t.trail n 0;
  t.trail_lim <- grow t.trail_lim n 0;
  t.heap <- grow t.heap n 0;
  t.heap_pos <- grow t.heap_pos n (-1);
  t.in_cone <- grow t.in_cone n 0;
  t.value <- grow t.value (2 * n) (-1);
  t.watches <- grow t.watches (2 * n) [||];
  t.watch_n <- grow t.watch_n (2 * n) 0

(* ---- VSIDS order heap ---- *)

let heap_swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.heap_pos.(b) <- i;
  t.heap_pos.(a) <- j

let rec heap_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.activity.(t.heap.(i)) > t.activity.(t.heap.(parent)) then begin
      heap_swap t i parent;
      heap_up t parent
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_n && t.activity.(t.heap.(l)) > t.activity.(t.heap.(!best))
  then best := l;
  if r < t.heap_n && t.activity.(t.heap.(r)) > t.activity.(t.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    let i = t.heap_n in
    t.heap_n <- i + 1;
    t.heap.(i) <- v;
    t.heap_pos.(v) <- i;
    heap_up t i
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_n <- t.heap_n - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_n > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_n);
    t.heap_pos.(t.heap.(0)) <- 0;
    heap_down t 0
  end;
  v

(* [v] may be decided: any var, or in a cone solve only a cone var *)
let decidable t v = (not t.cone) || t.in_cone.(v) = t.cone_stamp

(* replace the heap's contents by the unassigned [decidable] variables in
   [lo .. hi], in index order (as [new_var] inserts them), heapified in
   O(hi - lo) *)
let heap_rebuild t lo hi =
  for i = 0 to t.heap_n - 1 do t.heap_pos.(t.heap.(i)) <- -1 done;
  t.heap_n <- 0;
  for v = lo to hi do
    if decidable t v && t.value.(mk_lit v true) < 0 then begin
      t.heap.(t.heap_n) <- v;
      t.heap_pos.(v) <- t.heap_n;
      t.heap_n <- t.heap_n + 1
    end
  done;
  for i = (t.heap_n / 2) - 1 downto 0 do heap_down t i done

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  ensure_capacity t (v + 1);
  heap_insert t v;
  v

let enqueue t l reason =
  if t.cone && decidable t (lit_var l) then t.cone_free <- t.cone_free - 1;
  t.value.(l) <- 1;
  t.value.(lit_neg l) <- 0;
  t.level.(lit_var l) <- t.levels;
  t.reason.(lit_var l) <- reason;
  t.phase.(lit_var l) <- lit_sign l;
  t.trail.(t.trail_n) <- l;
  t.trail_n <- t.trail_n + 1

(* push clause [c] onto the watch vector of literal [l] *)
let watch t l c =
  let n = t.watch_n.(l) in
  if n = Array.length t.watches.(l) then
    t.watches.(l) <- grow t.watches.(l) (max 4 (n + 1)) 0;
  t.watches.(l).(n) <- c;
  t.watch_n.(l) <- n + 1

(* clause header: size in the low bits, owner + 1 above them *)
let owner_shift = 31
let size_mask = (1 lsl owner_shift) - 1

(* copy the first [n] literals of [lits] into the arena and watch the
   first two *)
let new_clause ~owner t lits n =
  let c = t.arena_n in
  t.arena <- grow t.arena (c + n + 1) 0;
  t.arena.(c) <- n lor ((owner + 1) lsl owner_shift);
  let arena = t.arena in
  for i = 0 to n - 1 do arena.(c + 1 + i) <- lits.(i) done;
  t.arena_n <- c + n + 1;
  watch t (lit_neg t.arena.(c + 1)) c;
  watch t (lit_neg t.arena.(c + 2)) c;
  c

(* add the problem clause of the [n] literals in [t.lits]: sorted with
   duplicates dropped, a tautology ignored, literals false at level 0
   dropped and one true at level 0 satisfying it *)
let add_lits ~owner t n =
  if t.ok then begin
    let a = t.lits in
    (* insertion sort, dropping duplicates *)
    let m = ref 0 in
    for i = 0 to n - 1 do
      let l = a.(i) in
      let j = ref !m in
      while !j > 0 && a.(!j - 1) > l do decr j done;
      if not (!j > 0 && a.(!j - 1) = l) then begin
        for k = !m downto !j + 1 do a.(k) <- a.(k - 1) done;
        a.(!j) <- l;
        incr m
      end
    done;
    (* sorted, a literal's negation can only sit right after it *)
    let taut = ref false in
    for i = 0 to !m - 2 do
      if a.(i + 1) = lit_neg a.(i) then taut := true
    done;
    if not !taut then begin
      let k = ref 0 and sat = ref false in
      for i = 0 to !m - 1 do
        let l = a.(i) in
        if t.level.(lit_var l) = 0 && t.value.(l) >= 0 then begin
          if t.value.(l) = 1 then sat := true
        end
        else begin
          a.(!k) <- l;
          incr k
        end
      done;
      if not !sat then
        match !k with
        | 0 -> t.ok <- false
        | 1 ->
          let l = a.(0) in
          if t.value.(l) = 0 then t.ok <- false
          else if t.value.(l) < 0 then enqueue t l (-1)
        | k ->
          ignore (new_clause ~owner t a k);
          t.nclauses <- t.nclauses + 1
    end
  end

(* [lits] copied into [t.lits]; returns their count *)
let load_lits t lits =
  let n = List.length lits in
  t.lits <- grow t.lits n 0;
  List.iteri (fun i l -> t.lits.(i) <- l) lits;
  n

(** Add a problem clause.  [owner] names the gate variable whose
    Tseitin definition the clause belongs to: a cone-restricted
    [solve] leaves it inert above level 0 while [owner] is outside the
    cone.  Without [owner] the clause is always active. *)
let add_clause ?(owner = -1) t lits = add_lits ~owner t (load_lits t lits)

(** [add_clause ~owner t [a; b]] and [[a; b; c]], with no list: the
    bit-blaster's gate clauses. *)
let add_clause2 ~owner t a b =
  t.lits.(0) <- a;
  t.lits.(1) <- b;
  add_lits ~owner t 2

let add_clause3 ~owner t a b c =
  t.lits.(0) <- a;
  t.lits.(1) <- b;
  t.lits.(2) <- c;
  add_lits ~owner t 3

(* a clause [header] whose owner gate is outside the running cone *)
let outside_cone t header =
  let o = header lsr owner_shift in
  o > 0 && t.in_cone.(o - 1) <> t.cone_stamp

(* Propagate all queued assignments; return the conflicting clause, or
   -1.  A literal's watchers are visited newest first and pushed back
   (kept, left behind by a conflict, or inert outside the cone) in the
   order they are met. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.prop_head < t.trail_n do
    let l = t.trail.(t.prop_head) in
    t.prop_head <- t.prop_head + 1;
    t.propagations <- t.propagations + 1;
    let false_lit = lit_neg l in
    let n = t.watch_n.(l) in
    if n > Array.length t.scratch then t.scratch <- grow t.scratch n 0;
    let ws = t.scratch and old = t.watches.(l) in
    for j = 0 to n - 1 do ws.(j) <- old.(j) done;
    t.watch_n.(l) <- 0;
    let i = ref (n - 1) in
    while !i >= 0 do
      let c = ws.(!i) in
      decr i;
      let a = t.arena in
      if t.cone && t.levels > 0 && outside_cone t a.(c) then
        watch t l c (* a gate outside the cone: inert *)
      else begin
        (* make sure the false literal is at position 1 *)
        if a.(c + 1) = false_lit then begin
          a.(c + 1) <- a.(c + 2);
          a.(c + 2) <- false_lit
        end;
        let first = a.(c + 1) in
        if t.value.(first) = 1 then watch t l c (* satisfied: keep watching *)
        else begin
          (* look for a new watch *)
          let stop = c + 1 + (a.(c) land size_mask) in
          let k = ref (c + 3) in
          while !k < stop && t.value.(a.(!k)) = 0 do incr k done;
          if !k < stop then begin
            a.(c + 2) <- a.(!k);
            a.(!k) <- false_lit;
            watch t (lit_neg a.(c + 2)) c
          end
          else begin
            (* unit or conflict *)
            watch t l c;
            if t.value.(first) = 0 then begin
              conflict := c;
              (* put the remaining watchers back *)
              while !i >= 0 do
                watch t l ws.(!i);
                decr i
              done
            end
            else enqueue t first c
          end
        end
      end
    done
  done;
  !conflict

let var_bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v);
  if t.activity.(v) > 1e100 then begin
    for i = 0 to t.nvars - 1 do
      t.activity.(i) <- t.activity.(i) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
    (* relative order unchanged: the heap stays valid *)
  end

let var_decay t = t.var_inc <- t.var_inc /. 0.95

(* first-UIP conflict analysis; returns the learnt clause (UIP first)
   and the backtrack level *)
let analyze t confl =
  let learnt = ref [] and btlevel = ref 0 in
  let counter = ref 0 and p = ref (-1) and index = ref (t.trail_n - 1) in
  let rec resolve c =
    if c >= 0 then
      for k = c + 1 to c + (t.arena.(c) land size_mask) do
        let q = t.arena.(k) in
        let v = lit_var q in
        if (not t.seen.(v)) && t.level.(v) > 0 && q <> !p then begin
          t.seen.(v) <- true;
          var_bump t v;
          if t.level.(v) >= t.levels then incr counter
          else begin
            learnt := q :: !learnt;
            btlevel := max !btlevel t.level.(v)
          end
        end
      done;
    (* pick the next literal on the trail to resolve *)
    while not t.seen.(lit_var t.trail.(!index)) do decr index done;
    let q = t.trail.(!index) in
    p := q;
    t.seen.(lit_var q) <- false;
    decr counter;
    decr index;
    if !counter > 0 then resolve t.reason.(lit_var q)
  in
  resolve confl;
  (* the only marks left are the lower-level literals kept *)
  List.iter (fun q -> t.seen.(lit_var q) <- false) !learnt;
  (lit_neg !p :: !learnt, !btlevel)

let cancel_until t lvl =
  if t.levels > lvl then begin
    let target = t.trail_lim.(lvl) in
    for i = t.trail_n - 1 downto target do
      let l = t.trail.(i) in
      t.value.(l) <- -1;
      t.value.(lit_neg l) <- -1;
      t.reason.(lit_var l) <- -1;
      if decidable t (lit_var l) then begin
        heap_insert t (lit_var l);
        if t.cone then t.cone_free <- t.cone_free + 1
      end
    done;
    t.trail_n <- target;
    t.prop_head <- target;
    t.levels <- lvl
  end

let rec pick_heap t =
  if t.heap_n = 0 then -1
  else
    let v = heap_pop t in
    if t.value.(mk_lit v true) < 0 then v else pick_heap t

(* highest-activity unassigned variable, via the order heap; in a cone
   solve with every cone variable assigned, none, without popping the
   assigned ones the heap still holds *)
let pick_branch t = if t.cone && t.cone_free = 0 then -1 else pick_heap t

(* geometric restart schedule *)
let restart_interval n = int_of_float (100.0 *. (1.5 ** float_of_int n))

(** Undo every assignment above the root level.  Incremental sessions
    call this before adding clauses between [solve] calls: [add_clause]
    treats level-0 assignments as facts, so a stale model left by a
    previous SAT answer must not leak into clause simplification. *)
let reset_to_root t = cancel_until t 0

(* back to the root with the order heap holding exactly the unassigned
   variables the solve may decide *)
let start t cone =
  match cone with
  | None ->
    t.cone <- false;
    cancel_until t 0;
    if not t.heap_full then begin
      (* a cone solve left only its own variables in the heap *)
      heap_rebuild t 0 (t.nvars - 1);
      t.heap_full <- true
    end
  | Some (vars, n) ->
    (* a fresh stamp with no variable yet: unwinding the previous
       solve's trail re-inserts nothing *)
    t.cone <- true;
    t.cone_stamp <- t.cone_stamp + 1;
    cancel_until t 0;
    let lo = ref max_int and hi = ref (-1) in
    for i = 0 to n - 1 do
      let v = vars.(i) in
      t.in_cone.(v) <- t.cone_stamp;
      if v < !lo then lo := v;
      if v > !hi then hi := v
    done;
    heap_rebuild t !lo !hi;
    t.cone_free <- t.heap_n;
    t.heap_full <- false

(** Decide the clauses under [assumptions].  [cone = (vars, n)]
    restricts the search to the [n] variables [vars.(0..n-1)], which
    must hold every assumption variable and be closed under the inputs
    of every gate in it (see the header). *)
let solve ?(conflict_budget = max_int) ?meter ?(assumptions = []) ?cone t :
  result =
  if not t.ok then Unsat
  else begin
    start t cone;
    let result = ref Unknown in
    let restarts = ref 0 and restart_limit = ref (restart_interval 0) in
    let conflicts_here = ref 0 in
    (* budget is per-call: [t.conflicts] accumulates over the solver's
       lifetime so an incremental session would otherwise starve *)
    let start_conflicts = t.conflicts in
    (try
       while !result = Unknown do
         let confl = propagate t in
         if confl >= 0 then begin
           t.conflicts <- t.conflicts + 1;
           incr conflicts_here;
           (* charge the cell budget meter; a tripped conflict cap or
              deadline unwinds to the supervisor (the session rolls
              its assertion stack back, see Smt.Session) *)
           (match meter with
            | Some m -> Robust.Meter.charge_solver_conflicts m 1
            | None -> ());
           if t.levels = 0 then begin
             t.ok <- false;
             result := Unsat
           end
           else begin
             let learnt, btlevel = analyze t confl in
             cancel_until t btlevel;
             let reason =
               match learnt with
               | [ _ ] -> -1
               | _ ->
                 let n = load_lits t learnt in
                 new_clause ~owner:(-1) t t.lits n
             in
             enqueue t (List.hd learnt) reason;
             var_decay t
           end;
           if t.conflicts - start_conflicts >= conflict_budget then begin
             result := Unknown;
             raise Exit
           end
         end
         else if !conflicts_here > !restart_limit then begin
           incr restarts;
           restart_limit := restart_interval !restarts;
           conflicts_here := 0;
           cancel_until t 0
         end
         else begin
           if List.exists (fun a -> t.value.(a) = 0) assumptions then begin
             result := Unsat;
             raise Exit
           end;
           (* assume the assumption literals at successive levels, then
              decide *)
           let next =
             match List.find_opt (fun l -> t.value.(l) < 0) assumptions with
             | Some l -> l
             | None ->
               let v = pick_branch t in
               if v < 0 then -1 else mk_lit v t.phase.(v)
           in
           if next < 0 then result := Sat
           else begin
             t.trail_lim.(t.levels) <- t.trail_n;
             t.levels <- t.levels + 1;
             t.decisions <- t.decisions + 1;
             enqueue t next (-1)
           end
         end
       done
     with Exit -> ());
    (* retire the cone: the next [start] rebuilds the heap, so the
       unwind before it ([reset_to_root]) need not refill it *)
    if t.cone then t.cone_stamp <- t.cone_stamp + 1;
    !result
  end

(** Value of variable [v] in the satisfying assignment. *)
let model_value t v = t.value.(mk_lit v true) = 1

let num_vars t = t.nvars
let num_clauses t = t.nclauses
let num_conflicts t = t.conflicts
let num_decisions t = t.decisions
let num_propagations t = t.propagations
