let fold16 b ~off ~len =
  let acc = ref 0 in
  let i = ref off in
  let last = off + len in
  while !i < last do
    let word =
      if !i + 1 < last then Bytes.get_uint16_be b !i else Char.code (Bytes.get b !i) lsl 8
    in
    acc := !acc + word;
    if !acc > 0xffff then acc := (!acc land 0xffff) + 1;
    i := !i + 2
  done;
  lnot !acc land 0xffff
