type scenario = Resting | Walking | Running | Fall_at of int | Daily_mix

(* [accel_memo] and [ppg_memo] hold the samples already synthesised
   for their series: [memo_slots] (time, value) pairs direct-mapped by
   time, each table allocated on the series' first use. *)
type t = {
  seed : int;
  scenario : scenario;
  mutable accel_memo : int array;
  mutable ppg_memo : int array;
}

let create ?(seed = 0x5EED) scenario =
  { seed; scenario; accel_memo = [||]; ppg_memo = [||] }

let memo_slots = 64
let memo_table () = Array.make (2 * memo_slots) (-1)

(* Both series are pure functions of (seed, scenario, time), so a hit
   returns exactly what [f] would.  Negative times are not memoised:
   -1 marks an empty slot. *)
let memoised memo f t ~time_ms =
  if time_ms < 0 then f t ~time_ms
  else begin
    let i = 2 * (time_ms land (memo_slots - 1)) in
    if memo.(i) = time_ms then memo.(i + 1)
    else begin
      let v = f t ~time_ms in
      memo.(i) <- time_ms;
      memo.(i + 1) <- v;
      v
    end
  end

let scenario t = t.scenario

(* Deterministic integer noise: a small hash of (seed, tag, t). *)
let noise t ~tag ~time ~amp =
  if amp = 0 then 0
  else begin
    let h = ref (t.seed lxor (tag * 0x9E3779B1) lxor (time * 0x85EBCA6B)) in
    h := !h lxor (!h lsr 13);
    h := !h * 0xC2B2AE35 land 0x3FFFFFFF;
    h := !h lxor (!h lsr 16);
    (!h mod (2 * amp)) - amp
  end

let pi = 4.0 *. atan 1.0

(* Integer sinusoid: amplitude * sin(2*pi*freq_mhz*t/1000). [freq_mhz]
   is in milli-hertz so slow rhythms stay representable. *)
let sinusoid ~amp ~freq_mhz ~time_ms =
  let phase = 2.0 *. pi *. float_of_int freq_mhz *. float_of_int time_ms /. 1.0e6 in
  int_of_float (float_of_int amp *. sin phase)

(* Which activity is in force at [time_ms] for the scenario. *)
type phase = P_rest | P_walk | P_run | P_fall

let phase_at t ~time_ms =
  match t.scenario with
  | Resting -> P_rest
  | Walking -> P_walk
  | Running -> P_run
  | Fall_at f ->
    if time_ms >= f && time_ms < f + 400 then P_fall else P_rest
  | Daily_mix ->
    (* 5-minute segments: rest, walk, rest, run, ... *)
    (match time_ms / 300_000 mod 4 with
    | 0 | 2 -> P_rest
    | 1 -> P_walk
    | _ -> P_run)

let accel_sample t ~time_ms =
  match phase_at t ~time_ms with
  | P_rest ->
    ( noise t ~tag:1 ~time:time_ms ~amp:30,
      noise t ~tag:2 ~time:time_ms ~amp:30,
      1000 + noise t ~tag:3 ~time:time_ms ~amp:20 )
  | P_walk ->
    ( sinusoid ~amp:180 ~freq_mhz:1_900 ~time_ms + noise t ~tag:1 ~time:time_ms ~amp:60,
      sinusoid ~amp:120 ~freq_mhz:950 ~time_ms + noise t ~tag:2 ~time:time_ms ~amp:60,
      1000
      + sinusoid ~amp:350 ~freq_mhz:1_900 ~time_ms
      + noise t ~tag:3 ~time:time_ms ~amp:80 )
  | P_run ->
    ( sinusoid ~amp:420 ~freq_mhz:2_800 ~time_ms + noise t ~tag:1 ~time:time_ms ~amp:120,
      sinusoid ~amp:300 ~freq_mhz:1_400 ~time_ms + noise t ~tag:2 ~time:time_ms ~amp:120,
      1000
      + sinusoid ~amp:800 ~freq_mhz:2_800 ~time_ms
      + noise t ~tag:3 ~time:time_ms ~amp:150 )
  | P_fall ->
    (* free-fall then impact *)
    let (dt : int) =
      match t.scenario with Fall_at f -> time_ms - f | _ -> 0
    in
    if dt < 200 then (noise t ~tag:1 ~time:time_ms ~amp:40, 0, 100)
    else (noise t ~tag:1 ~time:time_ms ~amp:300, 2600, 3200)

(* Exact floor square root, capped at the 16-bit sensor range.  The
   float seed is within one of the true root for any 62-bit input; the
   two correction loops run at most once each. *)
let isqrt n =
  if n <= 0 then 0
  else begin
    let x = ref (int_of_float (sqrt (float_of_int n))) in
    while !x > 0 && !x * !x > n do
      decr x
    done;
    while (!x + 1) * (!x + 1) <= n do
      incr x
    done;
    Int.min !x 32767
  end

let magnitude t ~time_ms =
  let x, y, z = accel_sample t ~time_ms in
  isqrt ((x * x) + (y * y) + (z * z))

let accel_magnitude t ~time_ms =
  if Array.length t.accel_memo = 0 then t.accel_memo <- memo_table ();
  memoised t.accel_memo magnitude t ~time_ms

let heart_rate t ~time_ms =
  let base =
    match phase_at t ~time_ms with
    | P_rest -> 62
    | P_walk -> 95
    | P_run -> 148
    | P_fall -> 110
  in
  base + sinusoid ~amp:4 ~freq_mhz:8 ~time_ms + noise t ~tag:7 ~time:(time_ms / 1000) ~amp:3

(* pulse waveform at the current heart rate plus baseline wander *)
let ppg t ~time_ms =
  let bpm = heart_rate t ~time_ms in
  let freq_mhz = bpm * 1000 / 60 in
  2048
  + sinusoid ~amp:300 ~freq_mhz ~time_ms
  + sinusoid ~amp:40 ~freq_mhz:120 ~time_ms
  + noise t ~tag:9 ~time:time_ms ~amp:25

let ppg_sample t ~time_ms =
  if Array.length t.ppg_memo = 0 then t.ppg_memo <- memo_table ();
  memoised t.ppg_memo ppg t ~time_ms

let temperature t ~time_ms =
  330 + sinusoid ~amp:8 ~freq_mhz:1 ~time_ms
  + noise t ~tag:11 ~time:(time_ms / 10_000) ~amp:3

let light t ~time_ms =
  (* 24-hour cycle: night is dark, daylight peaks triangularly at 1pm *)
  let ms_day = 86_400_000 in
  let hour = time_ms mod ms_day / 3_600_000 in
  let base =
    if hour < 6 || hour >= 20 then 2
    else 800 - (60 * abs (hour - 13))
  in
  Int.max 0 (base + noise t ~tag:13 ~time:(time_ms / 5_000) ~amp:30)

(* Two-week battery life: 100 % over 14 * 86400e3 ms. *)
let battery_percent _ ~time_ms =
  let life_ms = 14 * 86_400_000 in
  Int.max 0 (100 - (time_ms * 100 / life_ms))

let button_state t ~time_ms =
  (* a press roughly every 97 seconds of active use *)
  if noise t ~tag:17 ~time:(time_ms / 97_000) ~amp:100 > 96 then 1 else 0
