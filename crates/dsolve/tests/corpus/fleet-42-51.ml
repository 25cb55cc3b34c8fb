let max2 a b = if a < b then b else a
let min2 a b = if a < b then a else b
let double x = x + x
let addk x = x + (0 - 5)
let rec sumto n = if n <= 0 then 0 else n + sumto (n - 1)
let clamp lo hi x = max2 lo (min2 hi x)
let rec length xs = match xs with | [] -> 0 | x :: rest -> 1 + length rest
let rec sum xs = match xs with | [] -> 0 | x :: rest -> x + sum rest
let rec append xs ys = match xs with | [] -> ys | x :: rest -> x :: append rest ys
let rec insert x vs = match vs with | [] -> [x] | y :: ys -> if x < y then x :: y :: ys else y :: insert x ys
let rec insertsort xs = match xs with | [] -> [] | x :: rest -> insert x (insertsort rest)
let rec range i j = if i > j then [] else i :: range (i + 1) j
let rec replicate n x = if n <= 0 then [] else x :: replicate (n - 1) x
let rec memb x xs = match xs with | [] -> false | y :: ys -> if x = y then true else memb x ys
let check0 = assert (length (insertsort (insertsort [])) >= (0 - 3))
let check1 = assert (sum (insertsort (replicate 1 (0 - 3))) > (0 - 3))
let check2 = assert (sum (insert (0 - 3) (replicate 0 (0 - 8))) = (0 - 3))