(** A CDCL SAT solver: two-watched-literal propagation, first-UIP
    clause learning, VSIDS-style decision heuristic with phase saving,
    and geometric restarts (every [100 * 1.5^n] conflicts).  This is
    the engine under the bit-blaster, the role STP/Z3 play for the
    paper's tools.

    Literal [2*v] is variable [v] (0-based), [2*v+1] its negation.  A
    clause is an offset into one [int array] arena: a size header, then
    its literals.  [watches.(l)] holds, in push order, the clauses
    watching [lit_neg l].  The trajectory tests in [test_smt.ml] pin
    the search (counts, verdicts, models): layout changes must keep
    them, heuristic changes (blockers, clause deletion, minimisation)
    move them. *)

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
    heap_pos = Array.make 8 (-1) }

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

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  ensure_capacity t (v + 1);
  heap_insert t v;
  v

let enqueue t l reason =
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

(* copy [lits] into the arena and watch its first two literals *)
let new_clause t lits =
  let c = t.arena_n in
  let n = List.length lits in
  t.arena <- grow t.arena (c + n + 1) 0;
  t.arena.(c) <- n;
  List.iteri (fun i l -> t.arena.(c + 1 + i) <- l) lits;
  t.arena_n <- c + n + 1;
  watch t (lit_neg t.arena.(c + 1)) c;
  watch t (lit_neg t.arena.(c + 2)) c;
  c

let add_clause t lits =
  if t.ok then begin
    (* simplify: drop duplicate/false literals, detect tautology *)
    let lits = List.sort_uniq compare lits in
    let taut = List.exists (fun l -> List.mem (lit_neg l) lits) lits in
    if not taut then begin
      let lits =
        List.filter
          (fun l -> not (t.value.(l) = 0 && t.level.(lit_var l) = 0))
          lits
      in
      if List.exists (fun l -> t.value.(l) = 1 && t.level.(lit_var l) = 0)
          lits
      then ()
      else
        match lits with
        | [] -> t.ok <- false
        | [ l ] ->
          if t.value.(l) = 0 then t.ok <- false
          else if t.value.(l) < 0 then enqueue t l (-1)
        | _ ->
          ignore (new_clause t lits);
          t.nclauses <- t.nclauses + 1
    end
  end

(* Propagate all queued assignments; return the conflicting clause, or
   -1.  A literal's watchers are visited newest first and pushed back
   (kept, left behind by a conflict) in the order they are met. *)
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
      (* make sure the false literal is at position 1 *)
      if a.(c + 1) = false_lit then begin
        a.(c + 1) <- a.(c + 2);
        a.(c + 2) <- false_lit
      end;
      let first = a.(c + 1) in
      if t.value.(first) = 1 then watch t l c (* satisfied: keep watching *)
      else begin
        (* look for a new watch *)
        let stop = c + 1 + a.(c) in
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
      for k = c + 1 to c + t.arena.(c) do
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
      heap_insert t (lit_var l)
    done;
    t.trail_n <- target;
    t.prop_head <- target;
    t.levels <- lvl
  end

let rec pick_branch t =
  (* highest-activity unassigned variable, via the order heap *)
  if t.heap_n = 0 then -1
  else
    let v = heap_pop t in
    if t.value.(mk_lit v true) < 0 then v else pick_branch t

(* geometric restart schedule *)
let restart_interval n = int_of_float (100.0 *. (1.5 ** float_of_int n))

(** Undo every assignment above the root level.  Incremental sessions
    call this before adding clauses between [solve] calls: [add_clause]
    treats level-0 assignments as facts, so a stale model left by a
    previous SAT answer must not leak into clause simplification. *)
let reset_to_root t = cancel_until t 0

let solve ?(conflict_budget = max_int) ?meter ?(assumptions = []) t : result =
  if not t.ok then Unsat
  else begin
    cancel_until t 0;
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
               match learnt with [ _ ] -> -1 | _ -> new_clause t learnt
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
    !result
  end

(** Value of variable [v] in the satisfying assignment. *)
let model_value t v = t.value.(mk_lit v true) = 1

let num_vars t = t.nvars
let num_clauses t = t.nclauses
let num_conflicts t = t.conflicts
let num_decisions t = t.decisions
let num_propagations t = t.propagations
