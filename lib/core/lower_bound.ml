type params = {
  n : int;
  eps : float;
  p : int;
  q : int;
  d : int;
  order_unpadded : int;
}

let choose_params ~n ~eps =
  if not (eps > 0.0 && eps < 1.0) then
    invalid_arg "Lower_bound.choose_params: need 0 < eps < 1";
  if n < 16 then invalid_arg "Lower_bound.choose_params: n too small";
  let p = max 2 (int_of_float (Float.pow (float_of_int n) eps)) in
  let q = n / 2 in
  let d = max 2 ((n - p - q) / p) in
  let order_unpadded = Cgraph.order_bound ~p ~q ~d in
  if order_unpadded > n then
    invalid_arg "Lower_bound.choose_params: construction does not fit";
  { n; eps; p; q; d; order_unpadded }

type bound = {
  params : params;
  bits_information : float;
  bits_side : float;
  bits_total : float;
  bits_per_router : float;
  table_upper_bits : float;
  ratio : float;
}

let theorem1 ~n ~eps =
  let params = choose_params ~n ~eps in
  let { p; q; d; _ } = params in
  let bits_information = Count.log2_lemma1_bound ~p ~q ~d in
  let mb = Umrs_bitcode.Rank.log2_binomial n q in
  let mc = 3.0 *. float_of_int (Umrs_bitcode.Codes.ceil_log2 n) in
  let bits_side = mb +. mc in
  let bits_total = Float.max 0.0 (bits_information -. bits_side) in
  let bits_per_router = bits_total /. float_of_int p in
  let table_upper_bits =
    float_of_int ((n - 1) * Umrs_bitcode.Codes.ceil_log2 n)
  in
  {
    params;
    bits_information;
    bits_side;
    bits_total;
    bits_per_router;
    table_upper_bits;
    ratio = bits_per_router /. table_upper_bits;
  }

let sweep ~ns ~epss =
  List.concat_map
    (fun n ->
      List.filter_map
        (fun eps ->
          match theorem1 ~n ~eps with
          | b -> Some b
          | exception Invalid_argument _ -> None)
        epss)
    ns

type global_bound = {
  g_n : int;
  g_p : int;
  g_bits_total : float;
  g_table_global_bits : float;
  g_ratio : float;
}

let global_theorem ~n =
  if n < 16 then invalid_arg "Lower_bound.global_theorem: n too small";
  let p = n / 4 in
  let q = p in
  let d = 2 in
  assert (Cgraph.order_bound ~p ~q ~d <= n);
  let bits_information = Count.log2_lemma1_bound ~p ~q ~d in
  let mb = Umrs_bitcode.Rank.log2_binomial n q in
  let mc = 3.0 *. float_of_int (Umrs_bitcode.Codes.ceil_log2 n) in
  let g_bits_total = Float.max 0.0 (bits_information -. mb -. mc) in
  let g_table_global_bits =
    float_of_int n *. float_of_int (n - 1)
    *. float_of_int (Umrs_bitcode.Codes.ceil_log2 n)
  in
  {
    g_n = n;
    g_p = p;
    g_bits_total;
    g_table_global_bits;
    g_ratio = g_bits_total /. (float_of_int n *. float_of_int n);
  }

let global_sweep ~ns = List.map (fun n -> global_theorem ~n) ns

let pp_global fmt b =
  Format.fprintf fmt
    "n=%-8d p=q=%-7d global LB=%-14.0f tables=%-14.0f LB/n^2=%.4f" b.g_n b.g_p
    b.g_bits_total b.g_table_global_bits b.g_ratio

let pp_bound fmt b =
  Format.fprintf fmt
    "n=%-8d eps=%.2f p=%-6d q=%-8d d=%-6d  LB/router=%-12.0f tables=%-12.0f ratio=%.3f"
    b.params.n b.params.eps b.params.p b.params.q b.params.d
    b.bits_per_router b.table_upper_bits b.ratio
